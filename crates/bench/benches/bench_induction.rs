//! Induction cost (DESIGN.md S4): ILS wall-clock vs database size and
//! per-pair induction cost, plus the QUEL-mirror overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use intensio_induction::{induce_pair, induce_pair_quel, Ils, IlsMemo, InductionConfig};
use intensio_shipdb::{generate, ship_database, ship_model, FleetConfig};
use intensio_storage::tuple::Tuple;
use intensio_storage::value::Value;

fn fleet(ships_per_class: usize) -> intensio_shipdb::Fleet {
    generate(FleetConfig {
        seed: 0x1991,
        n_types: 3,
        classes_per_type: 8,
        ships_per_class,
        sonars_per_family: 4,
        id_noise: 0.05,
        overlapping_bands: false,
    })
    .expect("generation succeeds")
}

fn bench_ils_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("ils_full_run");
    for ships_per_class in [5usize, 20, 80] {
        let f = fleet(ships_per_class);
        let model = f.ker_model();
        let total = f.config.total_ships();
        g.bench_with_input(BenchmarkId::from_parameter(total), &f, |b, f| {
            let ils = Ils::new(&model, InductionConfig::with_min_support(3));
            b.iter(|| ils.induce(&f.db).expect("induction succeeds"));
        });
    }
    g.finish();
}

fn bench_pairwise(c: &mut Criterion) {
    let mut g = c.benchmark_group("pairwise_displacement_type");
    for classes_per_type in [8usize, 24, 96] {
        let f = generate(FleetConfig {
            seed: 0x1991,
            n_types: 3,
            classes_per_type,
            ships_per_class: 2,
            sonars_per_family: 4,
            id_noise: 0.0,
            overlapping_bands: false,
        })
        .expect("generation succeeds");
        let class = f.db.get("CLASS").expect("CLASS").clone();
        let cfg = InductionConfig::with_min_support(2);
        g.bench_with_input(
            BenchmarkId::from_parameter(class.len()),
            &class,
            |b, rel| {
                b.iter(|| {
                    induce_pair(rel, "CLASS", "Displacement", "CLASS", "Type", &cfg)
                        .expect("induction succeeds")
                })
            },
        );
    }
    g.finish();
}

fn bench_quel_vs_direct(c: &mut Criterion) {
    let mut g = c.benchmark_group("ship_testbed_pair");
    let cfg = InductionConfig::with_min_support(3);
    let db = ship_database().expect("test bed builds");
    let class = db.get("CLASS").expect("CLASS").clone();
    g.bench_function("direct", |b| {
        b.iter(|| {
            induce_pair(&class, "CLASS", "Class", "CLASS", "Type", &cfg)
                .expect("induction succeeds")
        })
    });
    g.bench_function("via_quel", |b| {
        b.iter_batched(
            || ship_database().expect("test bed builds"),
            |mut db| {
                induce_pair_quel(&mut db, "CLASS", "Class", "Type", &cfg)
                    .expect("induction succeeds")
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_ship_testbed_full(c: &mut Criterion) {
    let db = ship_database().expect("test bed builds");
    let model = ship_model().expect("schema parses");
    c.bench_function("ils_ship_testbed_17_rules", |b| {
        let ils = Ils::new(&model, InductionConfig::with_min_support(3));
        b.iter(|| ils.induce(&db).expect("induction succeeds"));
    });
}

fn bench_parallel_ils(c: &mut Criterion) {
    let f = fleet(80); // 1920 ships
    let model = f.ker_model();
    let ils = Ils::new(&model, InductionConfig::with_min_support(3));
    let mut g = c.benchmark_group("ils_parallelism_1920_ships");
    g.bench_function("sequential", |b| {
        b.iter(|| ils.induce(&f.db).expect("induction succeeds"))
    });
    for threads in [2usize, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    ils.induce_parallel(&f.db, threads)
                        .expect("induction succeeds")
                })
            },
        );
    }
    g.finish();
}

/// Re-induction after one SUBMARINE append on the 6x10x30 fleet (the
/// servebench fleet, 3,690 tuples): the memoized run, which extends the
/// two SUBMARINE pairs and reuses the rest, against a from-scratch run.
fn bench_ils_after_append(c: &mut Criterion) {
    let f = generate(FleetConfig {
        seed: 1,
        n_types: 6,
        classes_per_type: 10,
        ships_per_class: 30,
        sonars_per_family: 4,
        id_noise: 0.02,
        overlapping_bands: false,
    })
    .expect("generation succeeds");
    let model = f.ker_model();
    let ils = Ils::new(&model, InductionConfig::with_min_support(3));
    let mut learned = IlsMemo::new();
    ils.induce_memo(&f.db, 1, &mut learned)
        .expect("induction succeeds");
    let class = f.db.get("CLASS").expect("CLASS").tuples()[0].get(0).clone();
    let appended = || {
        let mut db = f.db.clone();
        db.get_mut("SUBMARINE")
            .expect("SUBMARINE")
            .insert(Tuple::new(vec![
                Value::str("S900001"),
                Value::str("added 1"),
                class.clone(),
            ]))
            .expect("a fresh id");
        db
    };
    let mut g = c.benchmark_group("ils_after_append");
    g.bench_function("memoized", |b| {
        b.iter_batched(
            || (appended(), learned.clone()),
            |(db, mut memo)| {
                ils.induce_memo(&db, 1, &mut memo)
                    .expect("induction succeeds")
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("from_scratch", |b| {
        b.iter_batched(
            appended,
            |db| ils.induce(&db).expect("induction succeeds"),
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ils_scaling,
    bench_pairwise,
    bench_quel_vs_direct,
    bench_ship_testbed_full,
    bench_parallel_ils,
    bench_ils_after_append
);
criterion_main!(benches);
