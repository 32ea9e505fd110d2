//! Robustness: the SQL parser/executor must fail cleanly, never panic,
//! and round-trip simple generated queries.

use intensio_sql::{parse, query};
use intensio_storage::prelude::*;
use intensio_storage::tuple;
use proptest::prelude::*;

fn db() -> Database {
    let schema = Schema::new(vec![
        Attribute::key("K", Domain::char_n(8)),
        Attribute::new("N", Domain::basic(ValueType::Int)),
        Attribute::new("S", Domain::char_n(8)),
    ])
    .unwrap();
    let mut r = Relation::new("T", schema);
    for i in 0..30 {
        r.insert(tuple![format!("K{i:03}"), i as i64, format!("s{}", i % 5)])
            .unwrap();
    }
    let mut d = Database::new();
    d.create(r).unwrap();
    d
}

proptest! {
    #[test]
    fn parser_never_panics(s in "[ -~\n]{0,160}") {
        let _ = parse(&s);
    }

    #[test]
    fn select_like_noise_never_panics(tail in "[ -~]{0,80}") {
        let _ = parse(&format!("SELECT {tail}"));
        let _ = parse(&format!("SELECT A FROM {tail}"));
        let _ = parse(&format!("SELECT A FROM T WHERE {tail}"));
    }

    /// Generated range queries return exactly the rows a direct scan
    /// finds.
    #[test]
    fn range_queries_match_oracle(lo in -5i64..35, hi in -5i64..35) {
        let d = db();
        let sql = format!("SELECT K FROM T WHERE N >= {lo} AND N <= {hi}");
        let got = query(&d, &sql).unwrap();
        let expect = (0..30i64).filter(|n| *n >= lo && *n <= hi).count();
        prop_assert_eq!(got.len(), expect);
    }

    /// DISTINCT over the low-cardinality column is exact.
    #[test]
    fn distinct_matches_oracle(bound in 0i64..30) {
        let d = db();
        let sql = format!("SELECT DISTINCT S FROM T WHERE N < {bound}");
        let got = query(&d, &sql).unwrap();
        let expect = (0..bound.max(0)).map(|n| n % 5).collect::<std::collections::BTreeSet<_>>();
        prop_assert_eq!(got.len(), expect.len());
    }

    /// ORDER BY yields a sorted column, whatever the predicate.
    #[test]
    fn order_by_is_sorted(m in 0i64..6) {
        let d = db();
        let sql = format!("SELECT N FROM T WHERE S = 's{m}' ORDER BY N");
        let got = query(&d, &sql).unwrap();
        let ns: Vec<i64> = got.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        let mut sorted = ns.clone();
        sorted.sort();
        prop_assert_eq!(ns, sorted);
    }
}

/// A quoted literal is read as the text it is: a non-ASCII constant
/// matches the stored value it spells, in either quote style.
#[test]
fn non_ascii_literals_match_stored_text() {
    let schema = Schema::new(vec![
        Attribute::key("K", Domain::char_n(8)),
        Attribute::new("S", Domain::char_n(8)),
    ])
    .unwrap();
    let mut r = Relation::new("T", schema);
    for (k, s) in [("a", "é"), ("b", "Ã©"), ("c", "naïve"), ("d", "😀 ∀")] {
        r.insert(tuple![k, s]).unwrap();
    }
    let mut d = Database::new();
    d.create(r).unwrap();
    for (sql, key) in [
        ("SELECT K FROM T WHERE S = 'é'", "a"),
        ("SELECT K FROM T WHERE S = \"naïve\"", "c"),
        ("SELECT K FROM T WHERE S = '😀 ∀'", "d"),
    ] {
        let out = query(&d, sql).unwrap();
        let keys: Vec<String> = out.iter().map(|t| t.get(0).render_bare()).collect();
        assert_eq!(keys, [key], "{sql}");
    }
}
