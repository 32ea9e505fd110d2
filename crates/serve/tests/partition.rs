//! Partition-tolerance chaos drills over real `serve` child processes
//! and injected link faults (applied by `intensio_net`): no process
//! dies in these tests — the *network* does.
//!
//! Topology per drill: primary `a` plus two follower-candidates `b`
//! and `c`, every node labeled (`--net-name`) so `FAULT SET net.*`
//! specs can address links by name. Each process carries its own
//! fault registry, so a drill administers the partition on every
//! node that borders it — the same way a real partition is visible
//! from both sides. The harness connections are raw `TcpStream`s (see
//! `support`): the control plane stays up while the cluster's links
//! are down, which is also what lets the drills probe the *minority*
//! side of a partition.
//!
//! Every drill ends in the exact-set audit: every acked write present
//! exactly once on every node (zero loss, zero duplicate
//! application), one primary, one term, healed at lag 0. Failover
//! seeds are chosen so the promotion winner is deterministic; the
//! chaos probability seeds come from `INTENSIO_CHAOS_SEED` (inherited
//! by the children — see `intensio_fault::init_from_env`).

#![cfg(unix)]

mod support;

use std::path::PathBuf;
use std::time::{Duration, Instant};
use support::{await_epoch_match, await_role, temp_dir, write_retrying, Conn};

const HEARTBEAT_MS: u64 = 50;
const TIMEOUT_MS: u64 = 400;

/// One 3-node drill cluster: primary `a` polling its peers, candidates
/// `b` (seeded to win any promotion race) and `c` (seeded to lose),
/// each replicating from `a` with the sibling in the rotation so the
/// pre-promotion sweep can find an already-promoted winner.
struct Cluster {
    a: support::ServeChild,
    b: support::ServeChild,
    c: support::ServeChild,
    dirs: Vec<PathBuf>,
}

fn spawn_cluster(tag: &str) -> Cluster {
    let (win, lose) = support::winner_loser_seeds(Duration::from_millis(TIMEOUT_MS));
    let dirs = vec![
        temp_dir(&format!("{tag}-a")),
        temp_dir(&format!("{tag}-b")),
        temp_dir(&format!("{tag}-c")),
    ];
    // `a` needs its peers' addresses at spawn time (the telemetry
    // poller is how a deposed primary discovers the new term after a
    // heal), so reserve them up front.
    let baddr = support::reserve_addr();
    let caddr = support::reserve_addr();
    let hb = format!("{HEARTBEAT_MS}");
    let timeout = format!("{TIMEOUT_MS}");
    let a = support::ServeChild::spawn(
        &dirs[0],
        &[
            "--no-learn",
            "--fsync",
            "batch:4",
            "--net-name",
            "a",
            "--repl-heartbeat-ms",
            &hb,
            "--peers",
            &format!("{baddr},{caddr}"),
        ],
    );
    let candidate = |dir: &PathBuf, addr: &str, name: &str, rotation: &str, seed: u64| {
        support::ServeChild::spawn(
            dir,
            &[
                "--no-learn",
                "--fsync",
                "batch:4",
                "--net-name",
                name,
                "--addr",
                addr,
                "--candidate",
                "--replicate-from",
                rotation,
                "--failover-timeout-ms",
                &timeout,
                "--failover-seed",
                &format!("{seed}"),
                "--repl-heartbeat-ms",
                &hb,
            ],
        )
    };
    let b = candidate(&dirs[1], &baddr, "b", &format!("{},{caddr}", a.addr), win);
    let c = candidate(&dirs[2], &caddr, "c", &format!("{},{baddr}", a.addr), lose);
    assert_eq!(b.addr, baddr, "b must bind its reserved address");
    assert_eq!(c.addr, caddr, "c must bind its reserved address");
    Cluster { a, b, c, dirs }
}

impl Cluster {
    fn addrs(&self) -> [&str; 3] {
        [&self.a.addr, &self.b.addr, &self.c.addr]
    }

    /// Administer link faults on one node over its control plane.
    fn fault(&self, addr: &str, specs: &str) {
        let reply = Conn::to(addr)
            .roundtrip(&format!("FAULT SET {specs}"))
            .expect("FAULT SET roundtrip");
        assert!(
            !reply.contains("\"ok\":false"),
            "FAULT SET {specs} on {addr} refused: {reply}"
        );
    }

    fn heal(&self, addr: &str) {
        let reply = Conn::to(addr)
            .roundtrip("FAULT CLEAR")
            .expect("FAULT CLEAR roundtrip");
        assert!(
            !reply.contains("\"ok\":false"),
            "FAULT CLEAR on {addr} refused: {reply}"
        );
    }

    fn heal_all(&self) {
        for addr in self.addrs() {
            self.heal(addr);
        }
    }

    /// Sever every link between `a` and the majority side, from both
    /// shores: on `a` by the followers' stream labels (the `node=`
    /// handshake names the writers) and poll addresses; on `b`/`c` by
    /// the primary's address (the endpoint they dial).
    fn isolate_a(&self) {
        self.fault(
            &self.a.addr,
            &format!(
                "net.partition=a<->b;net.partition#2=a<->c;\
                 net.partition#3=a<->{};net.partition#4=a<->{}",
                self.b.addr, self.c.addr
            ),
        );
        self.fault(&self.b.addr, &format!("net.partition=b<->{}", self.a.addr));
        self.fault(&self.c.addr, &format!("net.partition=c<->{}", self.a.addr));
    }

    /// Seed `n` writes through `a` and wait until both followers hold
    /// them, so later audits never race the initial catch-up.
    fn seed_writes(&self, prefix: &str, n: usize, acked: &mut Vec<String>) {
        for i in 0..n {
            let id = format!("{prefix}{i:03}");
            write_retrying(&[&self.a.addr], &id);
            acked.push(id);
        }
        await_epoch_match(&self.a.addr, &self.b.addr, "seed catch-up to b");
        await_epoch_match(&self.a.addr, &self.c.addr, "seed catch-up to c");
    }

    /// The end-of-drill audit: exactly one primary, one term
    /// everywhere, and the exact acked set — each id present exactly
    /// once on every node, identical multisets across the cluster.
    fn audit(&self, acked: &[String], want_term: u64, what: &str) {
        let mut primaries = Vec::new();
        let mut counts = Vec::new();
        for addr in self.addrs() {
            let (_, role, term) = Conn::to(addr).status();
            assert_eq!(term, want_term, "{what}: {addr} is not on term {want_term}");
            if role == "primary" {
                primaries.push(addr.to_string());
            }
            counts.push((addr.to_string(), Conn::to(addr).submarine_id_counts()));
        }
        assert_eq!(
            primaries.len(),
            1,
            "{what}: expected exactly one primary, found {primaries:?}"
        );
        for (addr, c) in &counts {
            for id in acked {
                assert_eq!(
                    c.get(id).copied().unwrap_or(0),
                    1,
                    "{what}: acked write {id} lost or duplicated on {addr}"
                );
            }
            assert_eq!(
                c, &counts[0].1,
                "{what}: {addr} diverges from {}",
                counts[0].0
            );
        }
    }

    fn teardown(self) {
        self.a.kill();
        self.b.kill();
        self.c.kill();
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Poll until `addr` has durably observed `term`.
fn await_term(addr: &str, term: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, _, t) = Conn::to(addr).status();
        if t == term {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: {addr} stuck at term {t}, want {term}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One `repl.*` counter from a follower's STATS (0 when absent).
fn repl_counter(addr: &str, field: &str) -> u64 {
    use intensio_serve::json::Json;
    Conn::to(addr)
        .json("STATS")
        .get("repl")
        .and_then(|r| r.get(field))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The flagship drill: a symmetric partition strands the primary in
/// the minority. The majority elects the seeded winner (`b`), the
/// loser's sweep joins it instead of dueling, the stranded primary
/// keeps serving stale reads but is fenced the moment anything
/// carrying the new term reaches it, and the heal rejoins it to the
/// new lineage at lag 0 with the exact acked set everywhere.
#[test]
fn symmetric_partition_promotes_majority_and_fences_the_stranded_primary() {
    let cluster = spawn_cluster("sym");
    let mut acked = Vec::new();
    cluster.seed_writes("SP", 3, &mut acked);

    cluster.isolate_a();
    let cut = Instant::now();

    // The stranded primary doesn't know yet: it still serves (stale)
    // reads and still calls itself a term-0 primary. That availability
    // is the point of the single-copy contract — and why writes must
    // not be sent to it while partitioned.
    let (_, role_a, term_a) = Conn::to(&cluster.a.addr).status();
    assert_eq!((role_a.as_str(), term_a), ("primary", 0));

    // The majority elects the seeded winner within the failover
    // deadline (plus generous CI slack).
    let took = await_role(
        &cluster.b.addr,
        "primary",
        Duration::from_secs(30),
        "winner promotion",
    );
    assert!(
        cut.elapsed() < Duration::from_millis(10 * TIMEOUT_MS),
        "majority unavailable for {took:?} after the cut"
    );
    let (_, _, term_b) = Conn::to(&cluster.b.addr).status();
    assert_eq!(term_b, 1, "promotion must bump the term");

    // Post-partition writes go to the majority side only.
    for i in 0..4 {
        let id = format!("SPM{i:03}");
        write_retrying(&[&cluster.b.addr], &id);
        acked.push(id);
    }
    // The loser adopts the winner's term without ever promoting: its
    // pre-promotion sweep found `b` already serving term 1.
    await_term(&cluster.c.addr, 1, "loser adopts the winner's term");
    let (_, role_c, _) = Conn::to(&cluster.c.addr).status();
    assert_ne!(role_c, "primary", "dueling primaries in the majority");
    await_epoch_match(&cluster.b.addr, &cluster.c.addr, "majority converges");

    // The silent stream to the dead link was dropped as half-open
    // (nothing crossed it for 3× the heartbeat cadence), not waited
    // on. Asserted on `c` — the winner's own drops vanish from STATS
    // once it serves as primary (`repl` is a follower-side object).
    assert!(
        repl_counter(&cluster.c.addr, "half_open_drops") >= 1,
        "the severed stream should have been dropped as half-open"
    );

    // The minority primary is still stranded on the old lineage: the
    // majority's writes must NOT be visible there.
    let stale = Conn::to(&cluster.a.addr).submarine_id_counts();
    assert!(
        !stale.contains_key("SPM000"),
        "a partitioned minority cannot hold majority-term writes"
    );

    // Fencing: the first thing carrying term 1 that reaches `a` — here
    // a replication handshake crossing the partition boundary — is
    // refused with STALE_TERM, and the refusal itself demotes.
    let fence = Conn::to(&cluster.a.addr)
        .roundtrip("REPLICATE 0 term=1")
        .expect("fence probe");
    assert!(
        fence.contains("STALE_TERM"),
        "stranded primary not fenced: {fence}"
    );
    await_role(
        &cluster.a.addr,
        "follower",
        Duration::from_secs(30),
        "fence demotion",
    );

    // Heal. The deposed node's telemetry poller finds the new primary,
    // re-points its replication rotation, and it rejoins at lag 0.
    cluster.heal_all();
    await_epoch_match(&cluster.b.addr, &cluster.a.addr, "deposed rejoin");
    let (_, role_a, term_a) = Conn::to(&cluster.a.addr).status();
    assert_eq!(
        (role_a.as_str(), term_a),
        ("follower", 1),
        "exactly one fenced deposed primary, rejoined on the new term"
    );

    cluster.audit(&acked, 1, "symmetric partition");
    cluster.teardown();
}

/// An asymmetric (one-way) partition: `a`'s frames to `b` vanish while
/// `b`'s packets to `a` still flow. `b` is starved into promoting; `c`
/// — which still hears `a` — never wavers. On heal the deposed
/// primary discovers the higher term through its poller, demotes, and
/// the whole cluster converges on the new lineage.
#[test]
fn oneway_partition_starves_one_follower_into_a_clean_takeover() {
    let cluster = spawn_cluster("oneway");
    let mut acked = Vec::new();
    cluster.seed_writes("OW", 3, &mut acked);

    // Sever only the a→b direction, from both shores: on `a` against
    // the labeled stream writer and the poll address; on `b` against
    // inbound traffic from the primary's address.
    cluster.fault(
        &cluster.a.addr,
        &format!("net.oneway=a->b;net.oneway#2=a->{}", cluster.b.addr),
    );
    cluster.fault(
        &cluster.b.addr,
        &format!("net.oneway={}->b", cluster.a.addr),
    );

    // `b` hears nothing — its redials connect (the b→a direction is
    // fine) but every read starves — so past its deadline, with its
    // sweep unable to hear `a` either, it promotes.
    await_role(
        &cluster.b.addr,
        "primary",
        Duration::from_secs(30),
        "starved follower promotes",
    );
    // Dueling primaries now exist by design; `c` stays loyal to the
    // one it can still hear.
    let (_, role_a, term_a) = Conn::to(&cluster.a.addr).status();
    assert_eq!((role_a.as_str(), term_a), ("primary", 0));
    let (_, role_c, term_c) = Conn::to(&cluster.c.addr).status();
    assert_ne!(role_c, "primary");
    assert_eq!(term_c, 0, "c must not adopt the new term while a is up");

    // The new lineage takes the writes.
    for i in 0..4 {
        let id = format!("OWN{i:03}");
        write_retrying(&[&cluster.b.addr], &id);
        acked.push(id);
    }

    // Heal. `a` polls `b`, sees a primary at a higher term, demotes,
    // and prefers it as replication target; `a`'s stream to `c` ends
    // with the demotion, and `c`'s rotation walks to `b`.
    cluster.heal(&cluster.a.addr);
    cluster.heal(&cluster.b.addr);
    await_role(
        &cluster.a.addr,
        "follower",
        Duration::from_secs(30),
        "deposed one-way primary demotes",
    );
    await_term(&cluster.c.addr, 1, "c crosses to the new lineage");
    await_epoch_match(&cluster.b.addr, &cluster.a.addr, "a rejoins");
    await_epoch_match(&cluster.b.addr, &cluster.c.addr, "c rejoins");

    cluster.audit(&acked, 1, "one-way partition");
    cluster.teardown();
}

/// Flapping links: short severs (well under the failover deadline)
/// with writes landing mid-sever. Each heal leaves the followers with
/// a hole where the blackholed records were; the next record forces
/// the gap detection → reconnect → durable-epoch resync path. No flap
/// may promote anyone.
#[test]
fn flapping_links_resync_without_ever_promoting() {
    let cluster = spawn_cluster("flap");
    let mut acked = Vec::new();
    cluster.seed_writes("FL", 3, &mut acked);

    for flap in 0..4 {
        // Sever from `a`'s shore only: follower redials still reach
        // the handshake, but every shipped frame is blackholed — the
        // nastiest variant, because the primary believes it shipped.
        cluster.fault(
            &cluster.a.addr,
            &format!(
                "net.partition=a<->b;net.partition#2=a<->c;\
                 net.partition#3=a<->{};net.partition#4=a<->{}",
                cluster.b.addr, cluster.c.addr
            ),
        );
        for i in 0..2 {
            let id = format!("FLAP{flap}{i:02}");
            write_retrying(&[&cluster.a.addr], &id);
            acked.push(id);
        }
        std::thread::sleep(Duration::from_millis(100));
        cluster.heal(&cluster.a.addr);
        // Heartbeats alone advertise the lag but never replay history;
        // the marker write is the record that trips the gap detector.
        let id = format!("FLAPM{flap:02}");
        write_retrying(&[&cluster.a.addr], &id);
        acked.push(id);
        await_epoch_match(&cluster.a.addr, &cluster.b.addr, "flap heal to b");
        await_epoch_match(&cluster.a.addr, &cluster.c.addr, "flap heal to c");
    }

    let (_, role_a, _) = Conn::to(&cluster.a.addr).status();
    assert_eq!(role_a, "primary", "flapping must never depose the primary");
    assert!(
        repl_counter(&cluster.b.addr, "reconnects") >= 1,
        "the gap detector should have forced at least one resync"
    );
    cluster.audit(&acked, 0, "flapping links");
    cluster.teardown();
}

/// Slow is not dead: heartbeats delayed past every candidate's
/// failover deadline make both candidates *due*, but the pre-promotion
/// sweep still reaches the primary and joins it instead of dueling —
/// the same tie-break that keeps two candidates from splitting the
/// cluster keeps a slow cluster from a false promotion.
#[test]
fn delayed_heartbeats_alone_never_cause_a_false_promotion() {
    let cluster = spawn_cluster("delay");
    let mut acked = Vec::new();
    cluster.seed_writes("DL", 3, &mut acked);

    // Delay every stream frame a ships by far more than the failover
    // deadline (the deadline is at most 1.5 × 400ms).
    cluster.fault(&cluster.a.addr, "net.delay:1000=a->b;net.delay:1000#2=a->c");
    // Several full deadline cycles under delay.
    std::thread::sleep(Duration::from_millis(4 * TIMEOUT_MS));
    for addr in [&cluster.b.addr, &cluster.c.addr] {
        let (_, role, term) = Conn::to(addr).status();
        assert_ne!(
            role, "primary",
            "{addr} promoted under delay while the primary was reachable"
        );
        assert_eq!(term, 0, "{addr} bumped the term under pure slowness");
    }
    // The primary stayed available for writes the whole time.
    write_retrying(&[&cluster.a.addr], "DLW000");
    acked.push("DLW000".to_string());

    cluster.heal(&cluster.a.addr);
    await_epoch_match(&cluster.a.addr, &cluster.b.addr, "delay heal to b");
    await_epoch_match(&cluster.a.addr, &cluster.c.addr, "delay heal to c");
    cluster.audit(&acked, 0, "delayed heartbeats");
    cluster.teardown();
}

/// Duplicated and torn `#repl` frames on live links, injected at the
/// primary's stream writers: the follower reader's dedup keeps `b`'s
/// stream alive through exact duplicates, and `c` recovers from torn
/// frames by dropping the stream and resyncing — with the exact-set
/// audit proving neither path ever double-applies or loses a record.
#[test]
fn duplicated_and_torn_frames_on_live_links_never_corrupt_a_follower() {
    let cluster = spawn_cluster("dirty");
    let mut acked = Vec::new();
    cluster.seed_writes("DT", 3, &mut acked);

    // 50% of frames to b ship twice (seeded by INTENSIO_CHAOS_SEED);
    // the first two writes to c tear mid-frame and kill the stream.
    cluster.fault(&cluster.a.addr, "net.dup=50%a->b;net.torn_write=a->c*2");
    for i in 0..20 {
        let id = format!("DTW{i:03}");
        write_retrying(&[&cluster.a.addr], &id);
        acked.push(id);
    }
    cluster.heal(&cluster.a.addr);
    await_epoch_match(&cluster.a.addr, &cluster.b.addr, "dup survivor converges");
    await_epoch_match(&cluster.a.addr, &cluster.c.addr, "torn survivor converges");

    let (_, role_a, _) = Conn::to(&cluster.a.addr).status();
    assert_eq!(role_a, "primary", "dirty links must not depose the primary");
    cluster.audit(&acked, 0, "duplicated and torn frames");
    cluster.teardown();
}
