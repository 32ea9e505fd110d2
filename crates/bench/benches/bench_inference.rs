//! Inference cost (DESIGN.md S2): intensional-answer latency vs rule-set
//! cardinality — the storing/searching overhead §5.2.2 motivates pruning
//! with — for a reused engine and for a cold cache miss, which builds
//! the engine and infers once; and, on the servebench-shaped fleet with
//! the rule set a default `Service` serves, the two `infer_miss` query
//! shapes and the first-use build of the rule set's attribute lookup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use intensio_induction::{Ils, InductionConfig};
use intensio_inference::{InferenceConfig, InferenceEngine};
use intensio_serve::Service;
use intensio_shipdb::{generate, ship_database, ship_model, FleetConfig};
use intensio_sql::{analyze, parse};

fn bench_rule_set_size(c: &mut Criterion) {
    let fleet = generate(FleetConfig {
        seed: 0x1991,
        n_types: 4,
        classes_per_type: 12,
        ships_per_class: 40,
        sonars_per_family: 6,
        id_noise: 0.05,
        overlapping_bands: false,
    })
    .expect("generation succeeds");
    let model = fleet.ker_model();
    let (lo, hi) = fleet.type_band["T02"];
    let q = parse(&format!(
        "SELECT SUBMARINE.ID FROM SUBMARINE, CLASS \
         WHERE SUBMARINE.CLASS = CLASS.CLASS \
         AND CLASS.DISPLACEMENT > {lo} AND CLASS.DISPLACEMENT < {hi}"
    ))
    .expect("query parses");
    let analysis = analyze(&fleet.db, &q).expect("analysis succeeds");

    let rule_sets: Vec<_> = [50usize, 20, 5, 1]
        .into_iter()
        .map(|nc| {
            Ils::new(&model, InductionConfig::with_min_support(nc))
                .induce(&fleet.db)
                .expect("induction succeeds")
                .rules
        })
        .collect();
    let cfg = InferenceConfig::default();
    let mut g = c.benchmark_group("infer_vs_rule_count");
    for rules in &rule_sets {
        let engine = InferenceEngine::new(&model, rules, &fleet.db, cfg).expect("engine builds");
        g.bench_with_input(
            BenchmarkId::from_parameter(rules.len()),
            &engine,
            |b, engine| b.iter(|| engine.infer(&analysis)),
        );
    }
    g.finish();
    let mut g = c.benchmark_group("cold_miss_vs_rule_count");
    for rules in &rule_sets {
        g.bench_with_input(
            BenchmarkId::from_parameter(rules.len()),
            rules,
            |b, rules| {
                b.iter(|| {
                    InferenceEngine::new(&model, rules, &fleet.db, cfg)
                        .expect("engine builds")
                        .infer(&analysis)
                })
            },
        );
    }
    g.finish();
}

fn bench_paper_examples(c: &mut Criterion) {
    let db = ship_database().expect("test bed builds");
    let model = ship_model().expect("schema parses");
    let rules = Ils::new(&model, InductionConfig::with_min_support(3))
        .induce(&db)
        .expect("induction succeeds")
        .rules;
    let engine = InferenceEngine::new(&model, &rules, &db, InferenceConfig::default())
        .expect("engine builds");

    let mut g = c.benchmark_group("paper_examples");
    for (label, sql) in [
        (
            "example1_forward",
            "SELECT SUBMARINE.ID FROM SUBMARINE, CLASS \
             WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.DISPLACEMENT > 8000",
        ),
        (
            "example2_backward",
            "SELECT SUBMARINE.NAME FROM SUBMARINE, CLASS \
             WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.TYPE = \"SSBN\"",
        ),
        (
            "example3_combined",
            "SELECT SUBMARINE.NAME FROM SUBMARINE, CLASS, INSTALL \
             WHERE SUBMARINE.CLASS = CLASS.CLASS AND SUBMARINE.ID = INSTALL.SHIP \
             AND INSTALL.SONAR = \"BQS-04\"",
        ),
    ] {
        let q = parse(sql).expect("query parses");
        let analysis = analyze(&db, &q).expect("analysis succeeds");
        g.bench_function(label, |b| b.iter(|| engine.infer(&analysis)));
    }
    g.finish();
}

/// The servebench fleet (six types of ten classes of thirty ships,
/// seed 1) and the ~490 rules a default `Service` induces from it:
/// `infer` on servebench's `infer_miss` band and type-membership
/// queries, and the build of the lookup those inferences read, which a
/// served rule set pays once (`prune_below(0)` empties it and drops no
/// rule, a pass over the rules).
fn bench_servebench_fleet(c: &mut Criterion) {
    let fleet = generate(FleetConfig {
        seed: 1,
        n_types: 6,
        classes_per_type: 10,
        ships_per_class: 30,
        sonars_per_family: 4,
        id_noise: 0.02,
        overlapping_bands: false,
    })
    .expect("generation succeeds");
    let model = fleet.ker_model();
    let service = Service::open(fleet.db.clone(), model.clone()).expect("service opens");
    let rules = service.rules();
    let (lo, hi) = fleet.type_band["T02"];
    let select = "SELECT SUBMARINE.Id, SUBMARINE.Name, CLASS.Class, CLASS.Type \
                  FROM SUBMARINE, CLASS WHERE SUBMARINE.Class = CLASS.Class";
    let engine = InferenceEngine::new(&model, &rules, &fleet.db, InferenceConfig::default())
        .expect("engine builds");
    let mut g = c.benchmark_group(&format!("servebench_fleet_{}_rules", rules.len()));
    for (label, cond) in [
        (
            "infer_band",
            format!(
                "CLASS.Displacement >= {} AND CLASS.Displacement <= {}",
                lo - 7,
                hi + 7
            ),
        ),
        (
            "infer_type_membership",
            format!("CLASS.Type = 'T02' AND CLASS.Displacement <= {}", hi + 7),
        ),
    ] {
        let q = parse(&format!("{select} AND {cond}")).expect("query parses");
        let analysis = analyze(&fleet.db, &q).expect("analysis succeeds");
        g.bench_function(label, |b| b.iter(|| engine.infer(&analysis)));
    }
    let mut fresh = (*rules).clone();
    g.bench_function("lookup_first_use", |b| {
        b.iter(|| {
            fresh.prune_below(0);
            fresh.lookup().key_count()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_rule_set_size,
    bench_paper_examples,
    bench_servebench_fleet
);
criterion_main!(benches);
