//! Byte-identity differential test of the SQL and QUEL reply path.
//!
//! A `SQL` reply is built from the plan's row ids: `select` keeps the
//! rows as ids into the snapshot's relations, the summary counts over
//! borrowed values, and the encoder writes rows, intensional lines and
//! an optional `"trace"` member into one buffer. [`reference`] keeps
//! the path it replaced: the executor of `support/exec_reference.rs`
//! (DISTINCT, projection into a relation, ORDER BY on that relation),
//! every value rendered into its own string, the summary counted over
//! the relation, the intensional answer rendered into a vector of
//! lines, and the encoder that formatted a traced reply twice. Every
//! reply must encode to the same bytes as the reference's, with and
//! without a trace id.
//!
//! Inputs: the `sql_differential` generator's queries (DISTINCT,
//! ORDER BY, aggregates, nulls, reals, self-joins, empty results),
//! Examples 1-3, the servebench query families on the generated fleet,
//! `EXPLAIN` and QUEL `retrieve` replies, and stored strings that need
//! escapes (quotes, backslashes, control bytes, non-ASCII) next to
//! reals and dates.
//!
//! Each of these mutants of the reply path fails this file:
//! - a stored string written without escaping;
//! - an unstable sort for ORDER BY;
//! - DISTINCT keeping the last of equal rows;
//! - the summary counted over the rows before DISTINCT.

#[path = "support/exec_reference.rs"]
mod exec_reference;
#[path = "support/sql_gen.rs"]
mod sql_gen;

use intensio::ker::model::KerModel;
use intensio::obs::TraceContext;
use intensio::serve::{encode_reply, encode_reply_with_trace, Reply, Request, Service};
use intensio::shipdb::{generate, ship_database, ship_model, FleetConfig};
use intensio::storage::prelude::{
    Attribute, Database, Date, Domain, Relation, Schema, Tuple, Value, ValueType,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TRACE: TraceContext = TraceContext {
    trace_id: 0x0123_4567_89ab_cdef,
    parent_span: 7,
};

/// What the compared replies held, so a suite that compares only
/// errors or empty answers fails rather than passes.
#[derive(Debug, Default)]
struct Tally {
    replies: usize,
    errors: usize,
    non_empty: usize,
    distinct: usize,
    ordered: usize,
    summaries: usize,
    intensional: usize,
}

/// The two encodings of one reply.
fn encodings(reply: &Reply) -> [String; 2] {
    [
        encode_reply(reply),
        encode_reply_with_trace(reply, Some(TRACE)),
    ]
}

fn assert_bytes(reply: &Reply, want: &str, what: &str) {
    let [got, traced] = encodings(reply);
    assert_eq!(got, want, "reply bytes differ: {what}");
    assert_eq!(
        encode_reply_with_trace(reply, None),
        want,
        "untraced reply bytes differ: {what}"
    );
    assert_eq!(
        traced,
        reference::traced(want, TRACE),
        "traced reply bytes differ: {what}"
    );
}

/// Send `sql` as `SQL` and as `EXPLAIN`; compare both replies' bytes.
fn check_sql(service: &Service, db: &Database, model: &KerModel, sql: &str, tally: &mut Tally) {
    let reply = service.submit(Request::Sql(sql.to_string()));
    let want = reference::sql(db, model, sql, &reply);
    assert_bytes(&reply, &want, sql);
    tally.replies += 1;
    match &reply {
        Reply::Query(q) => {
            tally.non_empty += usize::from(q.row_count() > 0);
            tally.summaries += usize::from(q.summary.is_some());
            tally.intensional += usize::from(!q.intensional.is_empty());
            let upper = sql.to_ascii_uppercase();
            tally.distinct += usize::from(upper.contains("DISTINCT") && q.row_count() > 1);
            tally.ordered += usize::from(upper.contains("ORDER BY") && q.row_count() > 1);
        }
        _ => tally.errors += 1,
    }
    let explain = service.submit(Request::Explain(sql.to_string()));
    if let Reply::Explain(e) = &explain {
        assert_bytes(&explain, &reference::explain(e), sql);
    }
}

fn check_quel(service: &Service, db: &Database, script: &str, tally: &mut Tally) {
    let reply = service.submit(Request::Quel(script.to_string()));
    let want = reference::quel(db, script, &reply);
    assert_bytes(&reply, &want, script);
    tally.replies += 1;
    if let Reply::Query(q) = &reply {
        tally.non_empty += usize::from(q.row_count() > 0);
    }
}

fn random_cases(seeds: std::ops::Range<u64>, per_seed: usize, ships_per_class: usize) -> Tally {
    let mut tally = Tally::default();
    for seed in seeds {
        let db = sql_gen::fleet_db(seed, ships_per_class);
        let model = fleet_model(seed, ships_per_class);
        let service = Service::open(db.clone(), model.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..per_seed {
            let sql = sql_gen::random_query(&db, &mut rng);
            check_sql(&service, &db, &model, &sql, &mut tally);
        }
    }
    assert!(tally.non_empty * 3 >= tally.replies, "{tally:?}");
    assert!(tally.distinct > 0 && tally.ordered > 0, "{tally:?}");
    assert!(tally.summaries * 4 >= tally.replies, "{tally:?}");
    tally
}

/// The KER model of the fleet `sql_gen::fleet_db` generates.
fn fleet_model(seed: u64, ships_per_class: usize) -> KerModel {
    generate(sql_gen::fleet_config(seed, ships_per_class))
        .unwrap()
        .ker_model()
}

#[test]
fn generated_selects_reply_like_the_reference() {
    random_cases(0..3, 70, 3);
}

#[test]
#[ignore = "long seed run; CI runs it in release"]
fn long_seed_run_replies_like_the_reference() {
    let tally = random_cases(100..130, 300, 5);
    println!("{tally:?}");
    let mut tally = Tally::default();
    for seed in 1..=3 {
        servebench_families(&servebench_fleet(seed, 30), &mut tally);
    }
    println!("{tally:?}");
}

#[test]
fn paper_examples_reply_like_the_reference() {
    let db = ship_database().unwrap();
    let model = ship_model().unwrap();
    let service = Service::open(db.clone(), model.clone()).unwrap();
    let mut tally = Tally::default();
    for sql in [
        "SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE FROM SUBMARINE, CLASS \
         WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000",
        "SELECT SUBMARINE.NAME, SUBMARINE.CLASS FROM SUBMARINE, CLASS \
         WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.TYPE = \"SSBN\"",
        "SELECT SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE FROM SUBMARINE, CLASS, INSTALL \
         WHERE SUBMARINE.CLASS = CLASS.CLASS AND SUBMARINE.ID = INSTALL.SHIP \
         AND INSTALL.SONAR = \"BQS-04\"",
        "SELECT DISTINCT CLASS.TYPE FROM SUBMARINE, CLASS WHERE SUBMARINE.CLASS = CLASS.CLASS",
        "SELECT Class, Type FROM CLASS ORDER BY Type",
        "SELECT Type, COUNT(*) FROM CLASS GROUP BY Type ORDER BY Type",
        "SELECT Name FROM SUBMARINE WHERE Class = '9999'",
        "SELECT Nope FROM SUBMARINE",
        "SELECT FROM",
    ] {
        check_sql(&service, &db, &model, sql, &mut tally);
    }
    for script in [
        "range of s is SUBMARINE\nretrieve (s.Id, s.Name) where s.Class = \"0101\"",
        "range of c is CLASS\nretrieve (c.Class, c.Type, c.Displacement)",
        "range of s is SUBMARINE\nretrieve (s.Name) where s.Class = \"none\"",
        "range of c is CLASS\nretrieve into SCRATCH (c.Class)",
        "retrieve (nonsense",
    ] {
        check_quel(&service, &db, script, &mut tally);
    }
    assert_eq!(tally.errors, 2, "{tally:?}");
    assert!(tally.intensional >= 3, "{tally:?}");
}

/// The servebench fleet shape: six types of ten classes.
fn servebench_fleet(seed: u64, ships_per_class: usize) -> intensio::shipdb::Fleet {
    generate(FleetConfig {
        seed,
        n_types: 6,
        classes_per_type: 10,
        ships_per_class,
        sonars_per_family: 4,
        id_noise: 0.02,
        overlapping_bands: false,
    })
    .unwrap()
}

/// servebench's read families: `Type = T`, a displacement band around
/// one type, a class-code range, `Type = T` under a displacement
/// ceiling, a band across two types, and a band inside one type.
fn servebench_families(fleet: &intensio::shipdb::Fleet, tally: &mut Tally) {
    let model = fleet.ker_model();
    let service = Service::open(fleet.db.clone(), model.clone()).unwrap();
    let select = "SELECT SUBMARINE.Id, SUBMARINE.Name, CLASS.Class, CLASS.Type \
                  FROM SUBMARINE, CLASS WHERE SUBMARINE.Class = CLASS.Class";
    let bands: Vec<(&String, &(i64, i64))> = fleet.type_band.iter().collect();
    for (t, (code, &(lo, hi))) in bands.iter().enumerate() {
        let digits = &code[1..];
        let mut conds = vec![
            format!("CLASS.Type = '{code}'"),
            format!(
                "CLASS.Displacement >= {} AND CLASS.Displacement <= {}",
                lo - 1,
                hi + 1
            ),
            format!("SUBMARINE.Class >= '{digits}00' AND SUBMARINE.Class <= '{digits}99'"),
            format!("CLASS.Type = '{code}' AND CLASS.Displacement <= {}", hi + 7),
            format!(
                "CLASS.Displacement >= {} AND CLASS.Displacement <= {}",
                lo + 1,
                hi - 1
            ),
        ];
        if let Some((_, &(_, next_hi))) = bands.get(t + 1) {
            conds.push(format!(
                "CLASS.Displacement >= {lo} AND CLASS.Displacement <= {next_hi}"
            ));
        }
        for c in conds {
            check_sql(
                &service,
                &fleet.db,
                &model,
                &format!("{select} AND {c}"),
                tally,
            );
        }
    }
}

#[test]
fn servebench_families_reply_like_the_reference() {
    let mut tally = Tally::default();
    servebench_families(&servebench_fleet(1, 4), &mut tally);
    assert_eq!(tally.errors, 0, "{tally:?}");
    assert_eq!(tally.non_empty, tally.replies, "{tally:?}");
    assert!(tally.intensional * 2 >= tally.replies, "{tally:?}");
}

/// Stored strings that need escapes, next to reals, dates and nulls.
#[test]
fn stored_strings_needing_escapes_reply_like_the_reference() {
    let schema = Schema::new(vec![
        Attribute::new("Id", Domain::basic(ValueType::Int)),
        Attribute::new("Text", Domain::basic(ValueType::Str)),
        Attribute::new("Weight", Domain::basic(ValueType::Real)),
        Attribute::new("Day", Domain::basic(ValueType::Date)),
    ])
    .unwrap();
    let mut odd = Relation::new("ODD", schema);
    let texts = [
        "say \"hi\"",
        "back\\slash \\\"",
        "tab\tnew\nline\rend",
        "\u{0}\u{1}\u{1f}\u{7f}",
        "é ü 😀 ∀",
        "",
        "plain",
    ];
    for (i, text) in texts.iter().enumerate() {
        let weight = match i % 3 {
            0 => Value::Real(i as f64 * 1.5),
            1 => Value::Real(-0.0),
            _ => Value::Null,
        };
        let day = Date::new(1990 + i as i32, 1 + i as u32, 1 + 3 * i as u32).unwrap();
        odd.insert(Tuple::new(vec![
            Value::Int(i as i64 - 2),
            Value::str(*text),
            weight,
            Value::Date(day),
        ]))
        .unwrap();
    }
    let mut db = Database::new();
    db.create(odd).unwrap();
    let model = KerModel::default();
    let service = Service::open(db.clone(), model.clone()).unwrap();
    let mut tally = Tally::default();
    for sql in [
        "SELECT * FROM ODD",
        "SELECT Text, Day FROM ODD ORDER BY Text",
        "SELECT DISTINCT Weight FROM ODD",
        "SELECT a.Text, b.Text FROM ODD a, ODD b WHERE a.Id < b.Id AND b.Id < 0",
    ] {
        check_sql(&service, &db, &model, sql, &mut tally);
    }
    check_quel(
        &service,
        &db,
        "range of o is ODD\nretrieve (o.Text, o.Weight, o.Day)",
        &mut tally,
    );
    assert_eq!(tally.errors, 0, "{tally:?}");
    assert_eq!(tally.non_empty, tally.replies, "{tally:?}");
}

/// The reply path before `select`, copied: rows rendered into strings,
/// the summary counted over the result relation, and the encoder that
/// collected intensional lines into a vector and spliced the trace id
/// into an encoded reply.
mod reference {
    use super::exec_reference;
    use intensio::core::{AnswerSummary, SummaryGroup, SummaryLevel};
    use intensio::inference::IntensionalAnswer;
    use intensio::ker::model::{subtype_label_among, KerModel};
    use intensio::obs::{push_json_str, TraceContext};
    use intensio::quel::{Output, Session};
    use intensio::serve::reply::ExplainReply;
    use intensio::serve::Reply;
    use intensio::sql::{analyze, parse};
    use intensio::storage::prelude::{Database, Relation, ValueRef};
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    /// The expected bytes of the reply to `SQL <sql>`; `got` supplies
    /// what the reply path does not compute (epoch, cache and freshness
    /// flags, the intensional answer).
    pub fn sql(db: &Database, model: &KerModel, sql: &str, got: &Reply) -> String {
        let q = match parse(sql) {
            Ok(q) => q,
            Err(e) => return error(&format!("sql parse: {e}")),
        };
        if let Err(e) = analyze(db, &q) {
            return error(&format!("sql analyze: {e}"));
        }
        let rel = match exec_reference::execute(db, &q) {
            Ok(rel) => rel,
            Err(e) => return error(&format!("sql execute: {e}")),
        };
        let Reply::Query(got) = got else {
            panic!("{sql}: the reference answers rows, the reply is {got:?}");
        };
        let summary = summarize(&rel, model);
        let (columns, rows) = render_relation(&rel);
        query(
            &Meta {
                epoch: got.epoch,
                cached: got.cached,
                rules_fresh: got.rules_fresh,
                degraded: got.degraded,
                soundness: got.soundness.as_str(),
            },
            &columns,
            &rows,
            &got.intensional,
            got.intensional.headline().as_deref(),
            (!summary.is_empty()).then(|| summary.to_string().trim_end().to_string()),
            None,
        )
    }

    /// The expected bytes of the reply to `QUEL <script>`.
    pub fn quel(db: &Database, script: &str, got: &Reply) -> String {
        if let Err(e) = intensio::quel::parse_script(script) {
            return error(&format!("quel parse: {e}"));
        }
        let mut db = db.clone();
        let outputs = match Session::new().run_script(&mut db, script) {
            Ok(o) => o,
            Err(e) => return error(&format!("quel: {e}")),
        };
        let Reply::Query(got) = got else {
            panic!("{script}: the reference answers rows, the reply is {got:?}");
        };
        let mut affected = None;
        let mut result: Option<&Relation> = None;
        for out in &outputs {
            match out {
                Output::Relation(r) => result = Some(r),
                Output::Affected(n) => *affected.get_or_insert(0) += n,
                Output::None | Output::Stored(_) => {}
            }
        }
        let (columns, rows) = match result {
            Some(r) => render_relation(r),
            None => (Vec::new(), Vec::new()),
        };
        query(
            &Meta {
                epoch: got.epoch,
                cached: false,
                rules_fresh: got.rules_fresh,
                degraded: false,
                soundness: "none",
            },
            &columns,
            &rows,
            &IntensionalAnswer::default(),
            None,
            None,
            affected,
        )
    }

    /// The expected bytes of an `EXPLAIN` reply.
    pub fn explain(e: &ExplainReply) -> String {
        let intensional = lines(&e.intensional);
        let mut w = ObjWriter::new();
        w.bool("ok", true)
            .str("kind", "explain")
            .num("epoch", e.epoch)
            .bool("cached", e.cached)
            .bool("rules_fresh", e.rules_fresh)
            .bool("degraded", e.degraded)
            .str("soundness", e.soundness.as_str())
            .raw("provenance", &provenance(&e.intensional))
            .str_array("intensional", &intensional)
            .opt_str("headline", e.headline.as_deref());
        w.finish()
    }

    /// An encoded reply with the trace id spliced in after the brace.
    pub fn traced(encoded: &str, t: TraceContext) -> String {
        format!("{{\"trace\":\"{:016x}\",{}", t.trace_id, &encoded[1..])
    }

    struct Meta {
        epoch: u64,
        cached: bool,
        rules_fresh: bool,
        degraded: bool,
        soundness: &'static str,
    }

    fn query(
        m: &Meta,
        columns: &[String],
        rows: &[Vec<String>],
        answer: &IntensionalAnswer,
        headline: Option<&str>,
        summary: Option<String>,
        affected: Option<usize>,
    ) -> String {
        let intensional = lines(answer);
        let mut w = ObjWriter::new();
        w.bool("ok", true)
            .str("kind", "query")
            .num("epoch", m.epoch)
            .bool("cached", m.cached)
            .bool("rules_fresh", m.rules_fresh)
            .bool("degraded", m.degraded)
            .str("soundness", m.soundness)
            .str_array("columns", columns)
            .rows("rows", rows)
            .str_array("intensional", &intensional)
            .opt_str("headline", headline)
            .opt_str("summary", summary.as_deref());
        match affected {
            Some(n) => w.num("affected", n as u64),
            None => w.raw("affected", "null"),
        };
        w.finish()
    }

    fn error(message: &str) -> String {
        let mut w = ObjWriter::new();
        w.bool("ok", false).str("error", message);
        w.finish()
    }

    fn lines(answer: &IntensionalAnswer) -> Vec<String> {
        if answer.is_empty() {
            return Vec::new();
        }
        render(answer)
            .lines()
            .map(str::to_string)
            .filter(|l| !l.is_empty())
            .collect()
    }

    fn provenance(answer: &IntensionalAnswer) -> String {
        let mut out = String::from("[");
        for (i, u) in answer.provenance.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut w = ObjWriter::new();
            w.num("rule_id", u.rule_id as u64)
                .num("support", u.support as u64)
                .str("direction", u.direction.as_str())
                .str("conclusion", &u.conclusion);
            out.push_str(&w.finish());
        }
        out.push(']');
        out
    }

    fn render_relation(rel: &Relation) -> (Vec<String>, Vec<Vec<String>>) {
        let columns = rel
            .schema()
            .attributes()
            .iter()
            .map(|a| a.name().to_string())
            .collect();
        let rows = rel
            .iter()
            .map(|t| t.values().iter().map(|v| v.render_bare()).collect())
            .collect();
        (columns, rows)
    }

    fn summarize(rel: &Relation, model: &KerModel) -> AnswerSummary {
        let classifiers = model.classifiers();
        let classifiers: Vec<_> = classifiers.into_iter().map(|(_, c)| c).collect();
        let mut levels = Vec::new();
        for (idx, attr) in rel.schema().attributes().iter().enumerate() {
            let base_name = attr.name().rsplit('.').next().unwrap_or(attr.name());
            if !classifiers
                .iter()
                .any(|c| c.attribute.eq_ignore_ascii_case(base_name))
            {
                continue;
            }
            let mut counts: BTreeMap<ValueRef<'_>, usize> = BTreeMap::new();
            for t in rel.iter() {
                *counts.entry(ValueRef(t.get(idx))).or_insert(0) += 1;
            }
            let mut groups: Vec<SummaryGroup> = counts
                .into_iter()
                .map(|(v, count)| SummaryGroup {
                    subtype: subtype_label_among(&classifiers, base_name, v.0),
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
        AnswerSummary {
            total: rel.len(),
            levels,
        }
    }

    fn render(a: &IntensionalAnswer) -> String {
        if a.is_empty() {
            return "No intensional characterization could be derived.".to_string();
        }
        let mut out = String::new();
        for f in &a.certain {
            let sentence = match &f.subtype {
                Some(s) => format!(
                    "Every answer is a {s} ({}.{} = {}).",
                    f.attr.object,
                    f.attr.attribute,
                    f.value.render_bare()
                ),
                None => format!(
                    "Every answer has {}.{} = {}.",
                    f.attr.object,
                    f.attr.attribute,
                    f.value.render_bare()
                ),
            };
            let attribution = match f.rule_id {
                Some(id) => format!(" [by rule R{id}, forward inference]"),
                None => " [by type hierarchy]".to_string(),
            };
            out.push_str(&sentence);
            out.push_str(&attribution);
            out.push('\n');
        }
        for b in &a.partial {
            let target = b.subtype.clone().unwrap_or_else(|| {
                format!(
                    "{}.{} = {}",
                    b.y.object,
                    b.y.attribute,
                    b.value.render_bare()
                )
            });
            out.push_str(&format!(
                "Instances with {}.{} {} are {target}.",
                b.x.object, b.x.attribute, b.range
            ));
            out.push_str(&format!(" [by rule R{}, backward inference", b.rule_id));
            match b.complete {
                Some(true) => out.push_str("; this covers all such instances]"),
                Some(false) => out.push_str(
                    "; NOTE: this description is incomplete — other instances also qualify]",
                ),
                None => out.push(']'),
            }
            out.push('\n');
        }
        out
    }

    /// The JSON object writer as it stood, for the members above.
    struct ObjWriter {
        buf: String,
        any: bool,
    }

    impl ObjWriter {
        fn new() -> ObjWriter {
            ObjWriter {
                buf: "{".to_string(),
                any: false,
            }
        }

        fn key(&mut self, key: &str) {
            if self.any {
                self.buf.push(',');
            }
            self.any = true;
            push_json_str(&mut self.buf, key);
            self.buf.push(':');
        }

        fn raw(&mut self, key: &str, value: &str) -> &mut Self {
            self.key(key);
            self.buf.push_str(value);
            self
        }

        fn str(&mut self, key: &str, value: &str) -> &mut Self {
            self.key(key);
            push_json_str(&mut self.buf, value);
            self
        }

        fn opt_str(&mut self, key: &str, value: Option<&str>) -> &mut Self {
            match value {
                Some(v) => self.str(key, v),
                None => self.raw(key, "null"),
            }
        }

        fn bool(&mut self, key: &str, value: bool) -> &mut Self {
            self.raw(key, if value { "true" } else { "false" })
        }

        fn num(&mut self, key: &str, value: u64) -> &mut Self {
            self.key(key);
            let _ = write!(self.buf, "{value}");
            self
        }

        fn str_array(&mut self, key: &str, items: &[String]) -> &mut Self {
            self.key(key);
            self.buf.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    self.buf.push(',');
                }
                push_json_str(&mut self.buf, item);
            }
            self.buf.push(']');
            self
        }

        fn rows(&mut self, key: &str, rows: &[Vec<String>]) -> &mut Self {
            self.key(key);
            self.buf.push('[');
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    self.buf.push(',');
                }
                self.buf.push('[');
                for (j, cell) in row.iter().enumerate() {
                    if j > 0 {
                        self.buf.push(',');
                    }
                    push_json_str(&mut self.buf, cell);
                }
                self.buf.push(']');
            }
            self.buf.push(']');
            self
        }

        fn finish(mut self) -> String {
            self.buf.push('}');
            self.buf
        }
    }
}
