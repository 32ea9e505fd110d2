//! Executor tests for the QUEL subset, including the exact statement
//! sequence of the paper's §5.2.1 rule-induction algorithm.

use intensio_quel::{Output, Session};
use intensio_storage::prelude::*;
use intensio_storage::tuple;

fn class_db() -> Database {
    let schema = Schema::new(vec![
        Attribute::key("Class", Domain::char_n(4)),
        Attribute::new("Type", Domain::char_n(4)),
        Attribute::new("Displacement", Domain::basic(ValueType::Int)),
    ])
    .unwrap();
    let mut class = Relation::new("CLASS", schema);
    class
        .insert_all([
            tuple!["0101", "SSBN", 16600],
            tuple!["0102", "SSBN", 7250],
            tuple!["0103", "SSBN", 7250],
            tuple!["0201", "SSN", 6000],
            tuple!["0215", "SSN", 2145],
        ])
        .unwrap();
    let mut db = Database::new();
    db.create(class).unwrap();
    db
}

#[test]
fn retrieve_unique_sort_into() {
    let mut db = class_db();
    let mut s = Session::new();
    s.execute(&mut db, "range of r is CLASS").unwrap();
    // Paper §5.2.1 step 1 with (X, Y) = (Displacement, Type).
    let out = s
        .execute(
            &mut db,
            "retrieve into S unique (r.Type, r.Displacement) sort by r.Type",
        )
        .unwrap();
    assert!(matches!(out, Output::Stored(ref n) if n == "S"));
    let stored = db.get("S").unwrap();
    // (SSBN,16600), (SSBN,7250) [dedup of two 7250s], (SSN,6000), (SSN,2145).
    assert_eq!(stored.len(), 4);
    assert_eq!(stored.tuples()[0].get(0), &Value::str("SSBN"));
    assert_eq!(stored.schema().attr(1).name(), "Displacement");
}

#[test]
fn multi_variable_qualification_joins() {
    let mut db = class_db();
    let sub_schema = Schema::new(vec![
        Attribute::key("Id", Domain::char_n(7)),
        Attribute::new("Class", Domain::char_n(4)),
    ])
    .unwrap();
    let mut sub = Relation::new("SUBMARINE", sub_schema);
    sub.insert_all([tuple!["SSBN730", "0101"], tuple!["SSN582", "0215"]])
        .unwrap();
    db.create(sub).unwrap();

    let mut s = Session::new();
    s.execute(&mut db, "range of b is SUBMARINE").unwrap();
    s.execute(&mut db, "range of c is CLASS").unwrap();
    let out = s
        .execute(
            &mut db,
            "retrieve (b.Id, c.Type) where b.Class = c.Class and c.Displacement > 8000",
        )
        .unwrap();
    let rel = out.relation().unwrap();
    assert_eq!(rel.len(), 1);
    assert_eq!(rel.tuples()[0], tuple!["SSBN730", "SSBN"]);
}

#[test]
fn inconsistent_pair_removal_sequence() {
    // The full §5.2.1 step-2 sequence: find (X, Y) pairs with the same X
    // but different Y, then delete them from S.
    let mut db = Database::new();
    let schema = Schema::new(vec![
        Attribute::new("X", Domain::basic(ValueType::Int)),
        Attribute::new("Y", Domain::char_n(4)),
    ])
    .unwrap();
    let mut rel = Relation::new("R", schema);
    rel.insert_all([
        tuple![1, "a"],
        tuple![2, "a"],
        tuple![3, "b"],
        tuple![3, "c"], // X = 3 is inconsistent
        tuple![4, "c"],
    ])
    .unwrap();
    db.create(rel).unwrap();

    let mut s = Session::new();
    let script = r#"
        range of r is R
        retrieve into S unique (r.Y, r.X) sort by r.Y
        range of r2 is R
        range of s is S
        retrieve into T unique (s.Y, s.X) where (r2.X = s.X and r2.Y != s.Y)
        range of t is T
        delete s where (s.X = t.X and s.Y = t.Y)
    "#;
    s.run_script(&mut db, script).unwrap();

    let t = db.get("T").unwrap();
    assert_eq!(t.len(), 2, "both (3,b) and (3,c) are inconsistent");
    let s_rel = db.get("S").unwrap();
    assert_eq!(s_rel.len(), 3, "inconsistent X=3 pairs removed from S");
    assert!(s_rel.iter().all(|tup| tup.get(1) != &Value::Int(3)));
}

#[test]
fn delete_without_qualification_empties() {
    let mut db = class_db();
    let mut s = Session::new();
    s.execute(&mut db, "range of c is CLASS").unwrap();
    let out = s.execute(&mut db, "delete c").unwrap();
    assert!(matches!(out, Output::Affected(5)));
    assert!(db.get("CLASS").unwrap().is_empty());
}

#[test]
fn append_and_replace() {
    let mut db = class_db();
    let mut s = Session::new();
    let out = s
        .execute(
            &mut db,
            r#"append to CLASS (Class = "0301", Type = "SSK", Displacement = 1800)"#,
        )
        .unwrap();
    assert!(matches!(out, Output::Affected(1)));
    assert_eq!(db.get("CLASS").unwrap().len(), 6);

    s.execute(&mut db, "range of c is CLASS").unwrap();
    let out = s
        .execute(
            &mut db,
            r#"replace c (Displacement = 2000) where c.Class = "0301""#,
        )
        .unwrap();
    assert!(matches!(out, Output::Affected(1)));
    let t = db
        .get("CLASS")
        .unwrap()
        .find_by_key(&[Value::str("0301")])
        .unwrap()
        .clone();
    assert_eq!(t.get(2), &Value::Int(2000));
}

#[test]
fn append_missing_attribute_is_null() {
    let mut db = class_db();
    let mut s = Session::new();
    s.execute(&mut db, r#"append to CLASS (Class = "0400")"#)
        .unwrap();
    let t = db
        .get("CLASS")
        .unwrap()
        .find_by_key(&[Value::str("0400")])
        .unwrap()
        .clone();
    assert!(t.get(1).is_null());
}

#[test]
fn undeclared_range_variable_errors() {
    let mut db = class_db();
    let mut s = Session::new();
    assert!(s.execute(&mut db, "retrieve (zz.Class)").is_err());
    assert!(s.execute(&mut db, "delete zz").is_err());
}

#[test]
fn range_of_unknown_relation_errors() {
    let mut db = class_db();
    let mut s = Session::new();
    assert!(s.execute(&mut db, "range of r is NOPE").is_err());
}

#[test]
fn duplicate_key_append_rejected() {
    let mut db = class_db();
    let mut s = Session::new();
    assert!(s
        .execute(
            &mut db,
            r#"append to CLASS (Class = "0101", Type = "SSBN", Displacement = 1)"#
        )
        .is_err());
}

#[test]
fn rebinding_a_range_variable() {
    let mut db = class_db();
    let sub_schema = Schema::new(vec![Attribute::key("Id", Domain::char_n(7))]).unwrap();
    db.create(Relation::new("SUBMARINE", sub_schema)).unwrap();
    let mut s = Session::new();
    s.execute(&mut db, "range of r is CLASS").unwrap();
    s.execute(&mut db, "range of r is SUBMARINE").unwrap();
    assert_eq!(s.range_of("r"), Some("SUBMARINE"));
}

#[test]
fn sort_by_multiple_keys() {
    let mut db = class_db();
    let mut s = Session::new();
    s.execute(&mut db, "range of c is CLASS").unwrap();
    let out = s
        .execute(
            &mut db,
            "retrieve (c.Type, c.Displacement) sort by c.Type, c.Displacement",
        )
        .unwrap();
    let rel = out.relation().unwrap();
    let first: Vec<Value> = rel.tuples()[0].values().to_vec();
    assert_eq!(first, vec![Value::str("SSBN"), Value::Int(7250)]);
}

#[test]
fn replace_violating_domain_rolls_back() {
    let mut db = class_db();
    let mut s = Session::new();
    s.execute(&mut db, "range of c is CLASS").unwrap();
    // Class is char[4]; writing a too-long string must fail and leave the
    // relation unchanged.
    let before = db.get("CLASS").unwrap().clone();
    let res = s.execute(
        &mut db,
        r#"replace c (Class = "TOOLONGCODE") where c.Type = "SSN""#,
    );
    assert!(res.is_err());
    let after = db.get("CLASS").unwrap();
    assert_eq!(after.len(), before.len());
    assert!(after.find_by_key(&[Value::str("0201")]).is_some());
}

#[test]
fn replace_on_a_new_snapshot_leaves_the_pinned_one_unchanged() {
    let pinned = class_db();
    let before = pinned.get("CLASS").unwrap().tuples().to_vec();
    let mut next = pinned.clone();
    let mut s = Session::new();
    s.execute(&mut next, "range of c is CLASS").unwrap();
    let out = s
        .execute(
            &mut next,
            r#"replace c (Displacement = 2000) where c.Class = "0215""#,
        )
        .unwrap();
    assert!(matches!(out, Output::Affected(1)));

    let old = pinned.get("CLASS").unwrap();
    assert_eq!(
        old.tuples(),
        &before[..],
        "the pinned snapshot never sees the write"
    );
    let new = next.get("CLASS").unwrap();
    let row = new.find_by_key(&[Value::str("0215")]).unwrap();
    assert_eq!(row.get(2), &Value::Int(2000));
    // Rows the write did not touch share their values with the pinned
    // snapshot; the replaced row has its own.
    for (a, b) in old.tuples().iter().zip(new.tuples()) {
        let shared = std::ptr::eq(a.values().as_ptr(), b.values().as_ptr());
        assert_eq!(shared, a.get(0) != &Value::str("0215"), "{a} / {b}");
    }
}
