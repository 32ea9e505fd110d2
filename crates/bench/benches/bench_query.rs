//! Extensional query cost: SQL execution (restriction row-id sets +
//! index-probe joins), answer summaries on the serve benchmark's fleet,
//! and the intensional-vs-extensional latency comparison — the practical
//! argument for intensional answers on large answer sets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use intensio_core::IntensionalQueryProcessor;
use intensio_induction::InductionConfig;
use intensio_shipdb::{generate, FleetConfig};

fn fleet(ships_per_class: usize) -> intensio_shipdb::Fleet {
    generate(FleetConfig {
        seed: 0x1991,
        n_types: 3,
        classes_per_type: 8,
        ships_per_class,
        sonars_per_family: 4,
        id_noise: 0.0,
        overlapping_bands: false,
    })
    .expect("generation succeeds")
}

fn bench_join_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("two_way_join");
    for ships_per_class in [5usize, 20, 80, 320] {
        let f = fleet(ships_per_class);
        let total = f.config.total_ships();
        let sql = "SELECT SUBMARINE.ID, CLASS.TYPE FROM SUBMARINE, CLASS \
                   WHERE SUBMARINE.CLASS = CLASS.CLASS";
        g.bench_with_input(BenchmarkId::from_parameter(total), &f.db, |b, db| {
            b.iter(|| intensio_sql::query(db, sql).expect("query succeeds"))
        });
    }
    g.finish();
}

fn bench_three_way_join(c: &mut Criterion) {
    let f = fleet(40);
    let sql = "SELECT SUBMARINE.NAME, CLASS.TYPE, INSTALL.SONAR \
               FROM SUBMARINE, CLASS, INSTALL \
               WHERE SUBMARINE.CLASS = CLASS.CLASS AND SUBMARINE.ID = INSTALL.SHIP";
    c.bench_function("three_way_join_960_ships", |b| {
        b.iter(|| intensio_sql::query(&f.db, sql).expect("query succeeds"))
    });
}

fn bench_intensional_vs_extensional(c: &mut Criterion) {
    let f = fleet(160); // 3840 ships
    let model = f.ker_model();
    let mut iqp = IntensionalQueryProcessor::new(f.db.clone(), model)
        .with_induction_config(InductionConfig::with_min_support(5));
    iqp.learn().expect("learning succeeds");
    let (lo, _) = f.type_band["T01"];
    let sql = format!(
        "SELECT SUBMARINE.ID, SUBMARINE.NAME FROM SUBMARINE, CLASS \
         WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT >= {lo}"
    );

    let mut g = c.benchmark_group("answer_modes_3840_ships");
    g.bench_function("extensional", |b| {
        b.iter(|| iqp.query_extensional(&sql).expect("query succeeds"))
    });
    g.bench_function("intensional", |b| {
        b.iter(|| iqp.query_intensional(&sql).expect("query succeeds"))
    });
    g.bench_function("both", |b| {
        b.iter(|| iqp.query(&sql).expect("query succeeds"))
    });
    g.finish();
}

fn bench_semantic_query_optimization(c: &mut Criterion) {
    // [CHU90]-style rewrite: forward inference injects a Type restriction
    // that lets the executor filter CLASS before the join.
    let f = fleet(160); // 3840 ships
    let model = f.ker_model();
    let mut iqp = IntensionalQueryProcessor::new(f.db.clone(), model)
        .with_induction_config(InductionConfig::with_min_support(5));
    iqp.learn().expect("learning succeeds");
    let (lo, hi) = f.type_band["T01"];
    let sql = format!(
        "SELECT SUBMARINE.ID FROM SUBMARINE, CLASS \
         WHERE SUBMARINE.CLASS = CLASS.CLASS \
         AND CLASS.DISPLACEMENT > {} AND CLASS.DISPLACEMENT < {}",
        lo - 1,
        hi + 1
    );
    let original = intensio_sql::parse(&sql).expect("query parses");
    let optimized = match iqp.optimize(&sql).expect("optimize succeeds") {
        intensio_inference::Optimized::Rewritten { query, .. } => query,
        other => panic!("expected a rewrite, got {other:?}"),
    };

    let mut g = c.benchmark_group("semantic_query_optimization");
    g.bench_function("original", |b| {
        b.iter(|| intensio_sql::execute(iqp.db(), &original).expect("query succeeds"))
    });
    g.bench_function("rewritten", |b| {
        b.iter(|| intensio_sql::execute(iqp.db(), &optimized).expect("query succeeds"))
    });
    g.finish();
}

/// `execute` and `summarize` for the four answer-cache query families
/// of the serve benchmark, on its fleet shape (6 types × 10 classes × 30
/// ships, seed 11): `Type =`, a whole displacement band, a
/// `SUBMARINE.Class` range, and a band spanning two types.
fn bench_serve_fleet_families(c: &mut Criterion) {
    let f = generate(FleetConfig {
        seed: 11,
        n_types: 6,
        classes_per_type: 10,
        ships_per_class: 30,
        sonars_per_family: 4,
        id_noise: 0.02,
        overlapping_bands: false,
    })
    .expect("generation succeeds");
    let model = f.ker_model();
    let (lo1, hi1) = f.type_band["T01"];
    let (_, hi2) = f.type_band["T02"];
    let families = [
        ("type_eq", "CLASS.Type = 'T01'".to_string()),
        (
            "whole_band",
            format!(
                "CLASS.Displacement >= {} AND CLASS.Displacement <= {}",
                lo1 - 1,
                hi1 + 1
            ),
        ),
        (
            "class_range",
            "SUBMARINE.Class >= '0100' AND SUBMARINE.Class <= '0199'".to_string(),
        ),
        (
            "two_type_band",
            format!(
                "CLASS.Displacement >= {} AND CLASS.Displacement <= {}",
                lo1 - 1,
                hi2 + 1
            ),
        ),
    ];
    let mut g = c.benchmark_group("serve_fleet_families");
    for (name, cond) in families {
        let q = intensio_sql::parse(&format!(
            "SELECT SUBMARINE.Id, SUBMARINE.Name, CLASS.Class, CLASS.Type \
             FROM SUBMARINE, CLASS WHERE SUBMARINE.Class = CLASS.Class AND {cond}"
        ))
        .expect("query parses");
        let answer = intensio_sql::execute(&f.db, &q).expect("query succeeds");
        assert!(answer.len() >= 300, "{name}: {} rows", answer.len());
        g.bench_function(&format!("execute/{name}"), |b| {
            b.iter(|| intensio_sql::execute(&f.db, &q).expect("query succeeds"))
        });
        g.bench_function(&format!("summarize/{name}"), |b| {
            b.iter(|| intensio_core::summarize(&answer, &model))
        });
    }
    g.finish();
}

/// A self-join on a low-cardinality key with both entries restricted to
/// one ship: the probe matches every install of a sonar (about 640 of
/// 7,680) and one of them is admitted.
fn bench_restricted_low_key_join(c: &mut Criterion) {
    let f = fleet(320);
    let ship = f.db.get("INSTALL").expect("INSTALL exists").tuples()[0]
        .get(0)
        .render_bare();
    let q = intensio_sql::parse(&format!(
        "SELECT a.Ship, b.Ship, a.Sonar FROM INSTALL a, INSTALL b \
         WHERE a.Sonar = b.Sonar AND a.Ship = '{ship}' AND b.Ship = '{ship}'"
    ))
    .expect("query parses");
    let answer = intensio_sql::execute(&f.db, &q).expect("query succeeds");
    assert_eq!(answer.len(), 1);
    c.bench_function("restricted_low_key_join_7680_ships", |b| {
        b.iter(|| intensio_sql::execute(&f.db, &q).expect("query succeeds"))
    });
}

criterion_group!(
    benches,
    bench_serve_fleet_families,
    bench_restricted_low_key_join,
    bench_join_scaling,
    bench_three_way_join,
    bench_intensional_vs_extensional,
    bench_semantic_query_optimization
);
criterion_main!(benches);
