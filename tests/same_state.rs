//! Same state everywhere: a primary, its follower and a reboot agree.
//!
//! A durable primary with a small checkpoint cadence runs a seeded mix
//! of QUEL appends, deletes and replaces. Some steps wait for the
//! re-induction the write triggered, so rule installs interleave with
//! writes, and checkpoints land mid-run. Three nodes are then compared:
//!
//! - the primary;
//! - a durable follower that replicated it over TCP through `Server`,
//!   joining halfway through the run;
//! - a service rebooted from a copy of the primary's data directory.
//!
//! All three must hold the same `(epoch, data_version, term)`, the same
//! rule set (`RuleSet::identical`), and the same relations, and must
//! encode byte-identical replies (`encode_reply`) to a fixed query set.
//! Writes commit, replicate and replay through one commit path and one
//! record reader, so any divergence between them shows here.

use intensio::prelude::*;
use intensio::serve::{encode_reply, Request, Server, Service, ServiceConfig};
use intensio::shipdb::{generate, FleetConfig};
use intensio_wal::{FsyncPolicy, WalConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIN_SUPPORT: usize = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("intensio-same-state-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        induction: InductionConfig::with_min_support(MIN_SUPPORT),
        induction_threads: 1,
        data_dir: Some(dir.to_path_buf()),
        wal: WalConfig {
            fsync: FsyncPolicy::Off,
            checkpoint_every: 4,
            ..WalConfig::default()
        },
        repl_heartbeat: Duration::from_millis(100),
        ..ServiceConfig::default()
    }
}

/// A fleet and the QUEL vocabulary for editing it.
struct Bed {
    db: Database,
    model: KerModel,
    ids: Vec<String>,
    classes: Vec<String>,
    next_id: usize,
}

impl Bed {
    fn fleet(seed: u64) -> Bed {
        let fleet = generate(FleetConfig {
            seed,
            n_types: 3,
            classes_per_type: 4,
            ships_per_class: 5,
            sonars_per_family: 2,
            id_noise: 0.05,
            overlapping_bands: false,
        })
        .unwrap();
        let column = |rel: &str, attr: &str| -> Vec<String> {
            let mut vals: Vec<String> = fleet
                .db
                .get(rel)
                .unwrap()
                .column(attr)
                .unwrap()
                .iter()
                .map(|v| v.render_bare())
                .collect();
            vals.sort();
            vals.dedup();
            vals
        };
        Bed {
            ids: column("SUBMARINE", "Id"),
            classes: column("CLASS", "Class"),
            model: fleet.ker_model(),
            db: fleet.db,
            next_id: 0,
        }
    }

    /// A random write that succeeds and changes one row.
    fn write(&mut self, rng: &mut StdRng) -> String {
        let pick = |v: &[String], rng: &mut StdRng| v[rng.gen_range(0..v.len())].clone();
        match rng.gen_range(0..10) {
            0..=4 => {
                let id = format!("S9{:05}", self.next_id);
                self.next_id += 1;
                self.ids.push(id.clone());
                let class = pick(&self.classes, rng);
                format!(
                    "append to SUBMARINE (Id = \"{id}\", Name = \"added\", Class = \"{class}\")"
                )
            }
            5..=6 if self.ids.len() > 4 => {
                let id = self.ids.swap_remove(rng.gen_range(0..self.ids.len()));
                format!("range of s is SUBMARINE\ndelete s where s.Id = \"{id}\"")
            }
            _ => {
                let id = pick(&self.ids, rng);
                let class = pick(&self.classes, rng);
                format!(
                    "range of s is SUBMARINE\nreplace s (Class = \"{class}\") where s.Id = \"{id}\""
                )
            }
        }
    }

    /// Every relation in full, then queries with intensional answers.
    fn queries(&self) -> Vec<String> {
        let mut queries: Vec<String> = self
            .db
            .relations()
            .map(|rel| {
                let columns: Vec<&str> =
                    rel.schema().attributes().iter().map(|a| a.name()).collect();
                format!("SELECT {} FROM {}", columns.join(", "), rel.name())
            })
            .collect();
        for class in self.classes.iter().step_by(3) {
            queries.push(format!(
                "SELECT Id, Name FROM SUBMARINE WHERE Class = '{class}'"
            ));
            queries.push(format!(
                "SELECT SUBMARINE.Id, CLASS.Type FROM SUBMARINE, CLASS \
                 WHERE SUBMARINE.Class = CLASS.Class AND CLASS.Class = '{class}'"
            ));
        }
        queries.push("SELECT Class, Type FROM CLASS WHERE Displacement > 5000".to_string());
        queries
    }
}

/// What one node says about its state.
struct Observed {
    position: (u64, u64, u64),
    rules: Arc<RuleSet>,
    replies: Vec<String>,
}

fn observe(service: &Service, queries: &[String]) -> Observed {
    let stats = service.stats();
    assert!(stats.rules_fresh, "observed with stale rules");
    Observed {
        position: (stats.epoch, stats.data_version, stats.term),
        rules: service.rules(),
        replies: queries
            .iter()
            .map(|q| encode_reply(&service.submit(Request::Sql(q.clone()))))
            .collect(),
    }
}

fn assert_same(a: &Observed, b: &Observed, queries: &[String], what: &str) {
    assert_eq!(
        a.position, b.position,
        "{what}: (epoch, data_version, term)"
    );
    assert!(a.rules.identical(&b.rules), "{what}: rule sets differ");
    for ((x, y), q) in a.replies.iter().zip(&b.replies).zip(queries) {
        assert!(x == y, "{what}: replies to {q} differ\n{x}\n{y}");
    }
}

/// Wait until the primary is quiet (rules fresh, epoch stable) and the
/// follower has applied everything up to its epoch.
fn converge(primary: &Service, follower: &Service) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "the follower never converged");
        let epoch = primary.epoch();
        if primary.stats().rules_fresh && follower.epoch() == epoch {
            std::thread::sleep(Duration::from_millis(50));
            if primary.epoch() == epoch && follower.epoch() == epoch {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn run(seed: u64, writes: usize) {
    let mut bed = Bed::fleet(seed);
    let queries = bed.queries();
    let primary_dir = temp_dir(&format!("{seed}-primary"));
    let follower_dir = temp_dir(&format!("{seed}-follower"));
    let reboot_dir = temp_dir(&format!("{seed}-reboot"));

    let primary = Arc::new(
        Service::with_config(bed.db.clone(), bed.model.clone(), config(&primary_dir)).unwrap(),
    );
    let server = Server::bind(primary.clone(), "127.0.0.1:0").unwrap();
    let mut follower = None;
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..writes {
        if i == writes / 2 {
            follower = Some(
                Service::with_config(
                    bed.db.clone(),
                    bed.model.clone(),
                    ServiceConfig {
                        replicate_from: Some(server.local_addr().to_string()),
                        ..config(&follower_dir)
                    },
                )
                .unwrap(),
            );
        }
        let script = bed.write(&mut rng);
        let reply = primary.submit(Request::Quel(script.clone()));
        assert!(
            reply.error().is_none(),
            "seed {seed} write {i}: {script}: {reply:?}"
        );
        if rng.gen_range(0..3) == 0 {
            assert!(primary.wait_rules_fresh(Duration::from_secs(60)));
        }
    }
    let follower = follower.expect("the follower joined");
    converge(&primary, &follower);
    let checkpoints = primary.stats().durability.unwrap().wal_checkpoints;
    assert!(checkpoints > 1, "no checkpoint landed mid-run");

    let at_primary = observe(&primary, &queries);
    let at_follower = observe(&follower, &queries);
    drop(follower);
    server.shutdown();
    drop(primary);
    copy_dir(&primary_dir, &reboot_dir);
    let rebooted =
        Service::with_config(bed.db.clone(), bed.model.clone(), config(&reboot_dir)).unwrap();
    let at_reboot = observe(&rebooted, &queries);
    drop(rebooted);

    assert_same(
        &at_primary,
        &at_follower,
        &queries,
        &format!("seed {seed} follower"),
    );
    assert_same(
        &at_primary,
        &at_reboot,
        &queries,
        &format!("seed {seed} reboot"),
    );
    for dir in [primary_dir, follower_dir, reboot_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn primary_follower_and_reboot_hold_the_same_state() {
    for seed in 1..=2 {
        run(seed, 24);
    }
}

/// The long run: more seeds, longer write sequences.
#[test]
#[ignore]
fn long_seeds_hold_the_same_state() {
    for seed in 3..=12 {
        run(seed, 200);
    }
}
