//! The traced run: per-layer figures.
//!
//! The run replays the workload's own rounds. Each operation is sent
//! over TCP, as the end-to-end run sends it, and its twin (the same
//! operation with fresh constants, see [`Plan::twin_round`]) through
//! `Service::submit` in process, in alternating order. After the twin,
//! the run times the calls into every layer's public functions, from
//! this file, on a private copy of the service's state kept in step
//! with it. Per-call figures are medians over the calls; counts are
//! `STATS` deltas over the replay, per operation. The two glue figures
//! are medians of per-pair differences:
//!
//! ```text
//! serve.handoff_us = submit - (sum of the twin's on-path layer times)
//! net.wire_us      = rt - submit - (the twin's reply encode time)
//! ```
//!
//! so the on-path layer medians, `serve.encode_us`, `serve.handoff_us`
//! and `net.wire_us` add up to the median TCP round trip, up to the
//! difference between a sum of medians and a median of sums.

use crate::oracle::World;
use crate::workload::{NewShip, Operation, Plan, Workload};
use crate::{check_op, run_op, service_config, Outcome, Phase, Rig, StatsDelta};
use intensio_check::{check_rules, RuleCheckConfig};
use intensio_induction::Ils;
use intensio_inference::{condition_fingerprint, InferenceEngine, IntensionalAnswer};
use intensio_quel::Session;
use intensio_rules::rule::RuleSet;
use intensio_serve::{encode_reply, AnswerCache, Reply, Request, ServiceConfig};
use intensio_storage::catalog::Database;
use intensio_wal::{rules_codec, Record, Wal};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Boot inductions timed on the read workloads (their only induction
/// is the one in set-up).
const BOOT_INDUCTIONS: usize = 3;

/// Appends the write-path probe makes on the read workloads.
const WRITE_PROBES: usize = 5;

/// Per-layer samples, in microseconds, and the running sum of the
/// current operation's on-path layer times.
#[derive(Default)]
struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    on_path: Vec<&'static str>,
    op_sum: f64,
}

impl Layers {
    fn with_path(on_path: Vec<&'static str>) -> Layers {
        Layers {
            on_path,
            ..Layers::default()
        }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let us = started.elapsed().as_secs_f64() * 1e6;
        self.samples.entry(name).or_default().push(us);
        if self.on_path.contains(&name) {
            self.op_sum += us;
        }
        out
    }

    /// The on-path time accumulated since the last call.
    fn take_op_sum(&mut self) -> f64 {
        std::mem::take(&mut self.op_sum)
    }

    fn median(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .and_then(|v| crate::stats::median(v))
            .unwrap_or(0.0)
    }
}

/// A private copy of the service's knowledge state, kept in step with
/// it, on which the layer calls are timed.
struct Private {
    cfg: ServiceConfig,
    db: Database,
    model: intensio_ker::model::KerModel,
    rules: RuleSet,
    cache: AnswerCache,
    epoch: u64,
    wal: Wal,
    rules_served: Vec<f64>,
}

impl Private {
    fn new(rig: &Rig, wal_dir: &Path, cfg: ServiceConfig) -> Result<Private, String> {
        let fleet = &rig.fleet;
        Ok(Private {
            db: fleet.db.clone(),
            model: fleet.ker_model(),
            rules: RuleSet::new(),
            cache: AnswerCache::new(cfg.cache_capacity),
            epoch: 0,
            wal: Wal::open(wal_dir, cfg.wal, 0).map_err(|e| format!("private wal: {e}"))?,
            rules_served: Vec::new(),
            cfg,
        })
    }

    /// The install path: ILS, the gate, the prune (what a boot or a
    /// background re-induction runs), then a fresh epoch.
    fn induce(&mut self, layers: &mut Layers) -> Result<(), String> {
        let ils = Ils::new(&self.model, self.cfg.induction);
        let out = layers
            .time("induction.ils_ms", || {
                ils.induce_parallel(&self.db, self.cfg.induction_threads)
            })
            .map_err(|e| format!("induction: {e}"))?;
        let gate = RuleCheckConfig {
            min_support: self.cfg.induction.min_support,
        };
        let report = layers.time("check.gate_ms", || {
            let mut r = check_rules(&out.rules, Some(&self.db), &gate);
            r.sort();
            r
        });
        if report.has_errors() {
            return Err("the install gate rejected the re-induced rule set".to_string());
        }
        let mut rules = out.rules;
        layers.time("rules.prune_ms", || rules.minimize());
        self.rules_served.push(rules.len() as f64);
        self.rules = rules;
        self.epoch += 1;
        Ok(())
    }

    /// A QUEL write as the service applies it, plus its WAL record.
    fn write(&mut self, layers: &mut Layers, ship: &NewShip) -> Result<(), String> {
        let script = ship.script();
        let db = layers.time("quel.apply_us", || {
            let mut db = self.db.clone();
            Session::new().run_script(&mut db, &script).map(|_| db)
        });
        self.db = db.map_err(|e| format!("quel: {e}"))?;
        self.epoch += 1;
        let record = Record::write(self.epoch, self.epoch, &script);
        layers
            .time("wal.append_us", || self.wal.append(&record))
            .map_err(|e| format!("wal: {e}"))
    }

    /// Encode and log the served rule set, as a durable install does.
    fn log_rules(&mut self, layers: &mut Layers) -> Result<(), String> {
        let body = layers
            .time("wal.rules_encode_us", || {
                rules_codec::rules_to_bytes(&self.rules)
            })
            .map_err(|e| format!("rules codec: {e}"))?;
        let record = Record::rules(self.epoch, self.epoch, body);
        layers
            .time("wal.append_us", || self.wal.append(&record))
            .map_err(|e| format!("wal: {e}"))
    }

    /// Replay one operation: a cycle's write and re-induction, then
    /// the read. Returns the answer and the query text.
    fn replay(
        &mut self,
        layers: &mut Layers,
        op: &Operation,
        engine_off_path: bool,
    ) -> Result<(Arc<IntensionalAnswer>, String), String> {
        let sql = match op {
            Operation::Read(q) => q.sql(),
            Operation::Cycle { ship, query } => {
                self.write(layers, ship)?;
                self.induce(layers)?;
                self.log_rules(layers)?;
                query.sql()
            }
        };
        Ok((self.read(layers, &sql, engine_off_path)?, sql))
    }

    /// The query path of `exec_sql`, layer by layer. With `engine_off_path`
    /// the engine is also built and run after a cache hit (timed, but not
    /// on the path). Returns the intensional answer served.
    fn read(
        &mut self,
        layers: &mut Layers,
        sql: &str,
        engine_off_path: bool,
    ) -> Result<Arc<IntensionalAnswer>, String> {
        let q = layers
            .time("sql.parse_us", || intensio_sql::parse(sql))
            .map_err(|e| format!("parse: {e}"))?;
        let analysis = layers
            .time("sql.analyze_us", || intensio_sql::analyze(&self.db, &q))
            .map_err(|e| format!("analyze: {e}"))?;
        let fingerprint = layers.time("inference.fingerprint_us", || {
            condition_fingerprint(&analysis)
        });
        let key = (fingerprint, self.epoch);
        let hit = layers.time("serve.cache_get_us", || self.cache.get(&key));
        let answer = match hit {
            Some(answer) if !engine_off_path => answer,
            hit => {
                let engine = layers
                    .time("inference.engine_build_us", || {
                        InferenceEngine::new(&self.model, &self.rules, &self.db, self.cfg.inference)
                    })
                    .map_err(|e| format!("engine: {e}"))?;
                let fresh = Arc::new(layers.time("inference.infer_us", || engine.infer(&analysis)));
                match hit {
                    Some(cached) => cached,
                    None => {
                        self.cache.insert(key, fresh.clone());
                        fresh
                    }
                }
            }
        };
        let rel = layers
            .time("sql.execute_us", || intensio_sql::execute(&self.db, &q))
            .map_err(|e| format!("execute: {e}"))?;
        layers.time("core.summarize_us", || {
            intensio_core::summarize(&rel, &self.model)
        });
        Ok(answer)
    }
}

/// Layers on the query path (`exec_sql`), the inference engine (on the
/// path of a cache miss), and the write-and-install path.
const READ_PATH: [&str; 6] = [
    "sql.parse_us",
    "sql.analyze_us",
    "inference.fingerprint_us",
    "serve.cache_get_us",
    "sql.execute_us",
    "core.summarize_us",
];
const ENGINE_PATH: [&str; 2] = ["inference.engine_build_us", "inference.infer_us"];
const WRITE_PATH: [&str; 6] = [
    "quel.apply_us",
    "wal.append_us",
    "wal.rules_encode_us",
    "induction.ils_ms",
    "check.gate_ms",
    "rules.prune_ms",
];

/// Run `op` in process: the same requests [`run_op`] sends over TCP.
fn submit_op(rig: &Rig, op: &Operation) -> Result<(Duration, Vec<Reply>), String> {
    let service = &rig.service;
    let started = Instant::now();
    let replies = match op {
        Operation::Read(q) => vec![service.submit(Request::Sql(q.sql()))],
        Operation::Cycle { ship, query } => {
            let ack = service.submit(Request::Quel(ship.script()));
            let epoch = ack
                .query()
                .map(|q| q.epoch)
                .ok_or_else(|| format!("write failed: {:?}", ack.error()))?;
            let read = service.submit_at(Request::Sql(query.sql()), Some(epoch + 1));
            vec![ack, read]
        }
    };
    Ok((started.elapsed(), replies))
}

/// The replay and the per-layer metrics.
pub fn run(
    rig: &mut Rig,
    world: &mut World,
    plan: &Plan,
    budget: Duration,
    scratch: &Path,
) -> Result<Outcome, String> {
    let workload = plan.workload();
    let writes = workload == Workload::WriteRelearn;
    // Cache hits skip the engine; it is still timed on their queries,
    // off the path, to show what the cache saves.
    let engine_on_path = workload != Workload::CacheHit;
    let mut on_path = READ_PATH.to_vec();
    if engine_on_path {
        on_path.extend(ENGINE_PATH);
    }
    if writes {
        on_path.extend(WRITE_PATH);
    }
    // The warm-up round (round 0) has run.
    let first_round = 1;

    // Private state in step with the service: the fleet, every ship
    // appended so far, and rules induced from them. On the read
    // workloads the boot induction is what gets timed.
    let cfg = service_config(workload, None);
    let mut private = Private::new(rig, &scratch.join("private"), cfg)?;
    let mut layers = Layers::with_path(on_path);
    let mut untimed = Layers::default();
    for op in plan.round(0) {
        if let Operation::Cycle { ship, .. } = op {
            private.write(&mut untimed, &ship)?;
        }
    }
    if writes {
        private.induce(&mut untimed)?;
        private.rules_served.clear();
    } else {
        for _ in 0..BOOT_INDUCTIONS {
            private.induce(&mut layers)?;
        }
    }
    if workload == Workload::CacheHit {
        for op in plan.round(0) {
            if let Operation::Read(q) = op {
                private.read(&mut untimed, &q.sql(), false)?;
            }
        }
    }
    layers.take_op_sum();

    let before = rig.stats()?;
    let mut phase = Phase::default();
    let mut consistent = true;
    let (mut rt, mut submit, mut handoff, mut wire) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut g = 0u64;
    while started.elapsed() < budget || wire.is_empty() {
        let r = first_round + phase.rounds;
        let mut replay = Phase {
            rounds: 1,
            ..Phase::default()
        };
        for (op, twin) in plan.round(r).into_iter().zip(plan.twin_round(r)) {
            // Alternate which leg goes first.
            let tcp_first = g.is_multiple_of(2);
            g += 1;
            let mut rt_us = None;
            let mut submit_us = None;
            for tcp in [tcp_first, !tcp_first] {
                if tcp {
                    match run_op(rig, &op) {
                        Ok(done) => {
                            replay.times.push(done.elapsed);
                            replay.note(check_op(world, &op, &done.replies));
                            rt_us = Some(done.elapsed.as_secs_f64() * 1e6);
                        }
                        Err(e) => {
                            replay.times.push(Duration::ZERO);
                            replay.note(Err(e));
                        }
                    }
                    if let Operation::Cycle { ship, .. } = &op {
                        private.write(&mut untimed, ship)?;
                    }
                    continue;
                }
                let (elapsed, replies) = match submit_op(rig, &twin) {
                    Ok(out) => out,
                    Err(e) => {
                        replay.times.push(Duration::ZERO);
                        replay.note(Err(e));
                        continue;
                    }
                };
                let encode_started = Instant::now();
                let lines: Vec<String> = replies.iter().map(encode_reply).collect();
                let encode = encode_started.elapsed().as_secs_f64() * 1e6;
                layers
                    .samples
                    .entry("serve.encode_us")
                    .or_default()
                    .push(encode);
                replay.times.push(elapsed);
                replay.note(check_op(world, &twin, &lines));
                let (ours, sql) = private.replay(&mut layers, &twin, !engine_on_path)?;
                let us = elapsed.as_secs_f64() * 1e6;
                handoff.push(us - layers.take_op_sum());
                submit_us = Some((us, encode));
                let theirs = replies.last().and_then(Reply::query);
                if theirs.map(|q| q.intensional.render()) != Some(ours.render()) {
                    eprintln!("replay diverged from the service on {sql}");
                    consistent = false;
                }
            }
            if let (Some(r), Some((s, e))) = (rt_us, submit_us) {
                rt.push(r);
                submit.push(s);
                wire.push(r - s - e);
            }
        }
        phase.absorb(replay);
    }
    let delta = StatsDelta {
        before,
        after: rig.stats()?,
    };
    if !writes {
        probe_writes(&mut private, &mut layers)?;
    }

    let med = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    let ops = phase.times.len() as f64;
    let per_op = |path: &[&str]| delta.get(path) / ops;
    let mut metrics = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &str| metrics.push(crate::metric(name, value, unit));
    for name in READ_PATH.iter().chain(&ENGINE_PATH).chain(&WRITE_PATH) {
        // Samples are in microseconds; the `_ms` layers report ms.
        match name.strip_suffix("_ms") {
            Some(_) => put(name, layers.median(name) / 1000.0, "ms"),
            None => put(name, layers.median(name), "us"),
        }
    }
    put("serve.encode_us", layers.median("serve.encode_us"), "us");
    put("serve.handoff_us", med(&handoff), "us");
    put("net.wire_us", med(&wire), "us");
    put(
        "inference.rules_served",
        med(&private.rules_served),
        "count",
    );
    put("serve.cache_hits_per_op", per_op(&["cache_hits"]), "count");
    put(
        "serve.cache_misses_per_op",
        per_op(&["cache_misses"]),
        "count",
    );
    put(
        "wal.fsyncs_per_op",
        per_op(&["durability", "wal_fsyncs"]),
        "count",
    );
    put(
        "wal.bytes_per_op",
        per_op(&["durability", "wal_append_bytes"]),
        "B",
    );
    put(
        "wal.checkpoints_per_op",
        per_op(&["durability", "wal_checkpoints"]),
        "count",
    );
    put(
        "induction.installs_per_op",
        per_op(&["inductions"]),
        "count",
    );
    eprintln!(
        "replayed {} operation pairs: TCP p50 {:.0} us, in process p50 {:.0} us",
        wire.len(),
        med(&rt),
        med(&submit)
    );
    Ok(Outcome {
        phase,
        metrics,
        consistent,
    })
}

/// On the read workloads no operation writes; time the write path on
/// a private copy so every layer is still measured on this fleet.
fn probe_writes(private: &mut Private, layers: &mut Layers) -> Result<(), String> {
    let class = private
        .db
        .get("CLASS")
        .ok()
        .and_then(|c| c.iter().next().map(|t| t.get(0).render_bare()))
        .ok_or("fleet has no class")?;
    for i in 0..WRITE_PROBES {
        let ship = NewShip {
            id: format!("S7{i:05}"),
            name: format!("probe {i:05}"),
            class: class.clone(),
        };
        private.write(layers, &ship)?;
        private.log_rules(layers)?;
    }
    Ok(())
}
