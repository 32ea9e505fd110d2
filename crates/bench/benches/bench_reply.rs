//! The read path of one `SQL` reply, layer by layer: selecting the
//! rows (row ids, no copy), summarizing them over the type hierarchy,
//! and encoding the wire reply, plus the whole in-process path of a
//! cache hit. The query is the serve benchmark's `Type = T` read on its
//! fleet: 300 rows of four columns. `execute` (select, then copy into a
//! relation) is timed beside `select` for comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use intensio_serve::{encode_reply, Request, Service};
use intensio_shipdb::{generate, FleetConfig};

const SQL: &str = "SELECT SUBMARINE.Id, SUBMARINE.Name, CLASS.Class, CLASS.Type \
                   FROM SUBMARINE, CLASS WHERE SUBMARINE.Class = CLASS.Class \
                   AND CLASS.Type = 'T00'";

fn bench_reply(c: &mut Criterion) {
    // The serve benchmark's fleet: six types of ten classes of thirty.
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
    let db = fleet.db.clone();
    let q = intensio_sql::parse(SQL).expect("query parses");
    let sel = intensio_sql::select(&db, &q).expect("query runs");
    assert_eq!(sel.len(), 300);
    let service = Service::open(fleet.db, model.clone()).expect("service opens");
    let reply = service.submit(Request::Sql(SQL.to_string()));
    assert!(reply.query().is_some(), "{reply:?}");

    let mut g = c.benchmark_group("reply_300_rows");
    g.bench_function("select", |b| {
        b.iter(|| intensio_sql::select(&db, &q).expect("query runs"))
    });
    g.bench_function("execute", |b| {
        b.iter(|| intensio_sql::execute(&db, &q).expect("query runs"))
    });
    g.bench_function("summarize", |b| {
        b.iter(|| intensio_core::summarize_selection(&sel, &model).to_string())
    });
    g.bench_function("encode", |b| b.iter(|| encode_reply(&reply)));
    g.bench_function("whole_path_cache_hit", |b| {
        b.iter(|| encode_reply(&service.submit(Request::Sql(SQL.to_string()))))
    });
    g.finish();
}

criterion_group!(benches, bench_reply);
criterion_main!(benches);
