//! Term-fenced failover contract tests, against real `serve` child
//! processes (SIGKILL, never a clean shutdown).
//!
//! The failover contract:
//!
//! 1. **Promotion.** A `--candidate` that loses the primary's
//!    heartbeat stream past its seeded deadline promotes itself:
//!    bumps the term, fsyncs a `TERM` fencepost into its WAL, and
//!    starts accepting writes.
//! 2. **Fencing.** A deposed primary that wakes up is rejected with
//!    `STALE_TERM` the moment it meets anything that durably observed
//!    the new term, demotes itself, and rejoins as a follower — its
//!    acked-but-unshipped term-0 suffix is retracted by the new
//!    primary's snapshot bootstrap, never merged.
//! 3. **No split brain.** Dueling candidates with *equal* timeouts
//!    break the tie through their seeded jitter: exactly one promotes,
//!    the other discovers the winner in its pre-promotion sweep and
//!    joins it.
//! 4. **No acked-on-new-term write lost, no duplicate application.**
//!    The exact-set audit at the end of every round.

#![cfg(unix)]

mod support;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use support::{await_epoch_match, await_role, temp_dir, write_retrying, Conn};

/// These drills audit exact epochs, so learning must not move them on
/// its own.
struct ServeChild;

impl ServeChild {
    fn spawn(data_dir: &Path, extra: &[&str]) -> support::ServeChild {
        let mut args = vec!["--no-learn"];
        args.extend_from_slice(extra);
        support::ServeChild::spawn(data_dir, &args)
    }
}

/// The acceptance-criteria chaos drill, 20/20 rounds: primary
/// SIGKILLed mid-write-burst, candidate promotes within its deadline,
/// the restarted old primary is fenced via `STALE_TERM` and demotes,
/// and the final exact-set audit shows every acked write present on
/// both nodes with no duplicate application.
#[test]
fn seeded_failover_twenty_rounds() {
    const ROUNDS: usize = 20;
    const TIMEOUT_MS: u64 = 300;
    for round in 0..ROUNDS {
        let pdir = temp_dir(&format!("r{round}-p"));
        let cdir = temp_dir(&format!("r{round}-c"));
        let primary = ServeChild::spawn(&pdir, &["--fsync", "batch:4"]);
        let paddr = primary.addr.clone();
        let seed = format!("{}", 0xF0 + round as u64);
        let candidate = ServeChild::spawn(
            &cdir,
            &[
                "--fsync",
                "batch:4",
                "--candidate",
                "--replicate-from",
                &paddr,
                "--failover-timeout-ms",
                &format!("{TIMEOUT_MS}"),
                "--failover-seed",
                &seed,
                "--repl-heartbeat-ms",
                "50",
            ],
        );
        let caddr = candidate.addr.clone();
        await_epoch_match(&paddr, &caddr, "pre-burst catchup");

        // Mid-write-burst kill: 3 acked before, the rest ride the
        // retry loop through the outage. Replication is async and
        // single-copy, so an acked term-0 write is only *guaranteed*
        // once shipped — wait for the candidate to hold the prefix
        // before killing, then assert that guarantee end to end.
        let mut acked: Vec<String> = Vec::new();
        for i in 0..3 {
            let id = format!("R{round:02}A{i:02}");
            write_retrying(&[&paddr], &id);
            acked.push(id);
        }
        await_epoch_match(&paddr, &caddr, "prefix shipped");
        primary.kill();
        let killed = Instant::now();
        for i in 0..3 {
            let id = format!("R{round:02}B{i:02}");
            write_retrying(&[&caddr], &id);
            acked.push(id);
        }
        // The candidate promoted (the post-kill writes prove it); the
        // deadline contract: within 1.5*timeout plus polling slack.
        let (_, role, term) = Conn::to(&caddr).status();
        assert_eq!(role, "primary", "round {round}: candidate never promoted");
        assert_eq!(term, 1, "round {round}: promotion must bump the term to 1");
        let outage = killed.elapsed();
        assert!(
            outage < Duration::from_millis(10 * TIMEOUT_MS),
            "round {round}: writes unavailable for {outage:?}"
        );

        // The deposed primary wakes up over its old WAL with no peers
        // configured: it recovers as a term-0 primary and *stays* one
        // until something carrying the new term reaches it. A
        // higher-term handshake must hit the STALE_TERM fence, and the
        // fence itself must demote it (no poller involved here).
        let deposed = ServeChild::spawn(&pdir, &["--fsync", "batch:4"]);
        let daddr = deposed.addr.clone();
        let fence = Conn::to(&daddr)
            .roundtrip(&format!("REPLICATE 0 term={term}"))
            .expect("fence probe");
        assert!(
            fence.contains("STALE_TERM"),
            "round {round}: stale primary not fenced: {fence}"
        );
        await_role(
            &daddr,
            "follower",
            Duration::from_secs(30),
            "fence demotion",
        );
        deposed.kill();

        // Restarted again knowing only its peers, the telemetry poller
        // is the discovery path: it finds the new primary, demotes,
        // and a snapshot bootstrap rejoins it to the new lineage.
        let deposed = ServeChild::spawn(&pdir, &["--fsync", "batch:4", "--peers", &caddr]);
        let daddr = deposed.addr.clone();
        await_role(&daddr, "follower", Duration::from_secs(30), "poll demotion");
        await_epoch_match(&caddr, &daddr, "deposed rejoin");

        // Exact-set audit on both survivors.
        for addr in [&caddr, &daddr] {
            let counts = Conn::to(addr).submarine_id_counts();
            for id in &acked {
                assert_eq!(
                    counts.get(id).copied().unwrap_or(0),
                    1,
                    "round {round}: acked write {id} lost or duplicated on {addr}"
                );
            }
        }
        assert_eq!(
            Conn::to(&caddr).submarine_id_counts(),
            Conn::to(&daddr).submarine_id_counts(),
            "round {round}: survivors diverge"
        );

        deposed.kill();
        candidate.kill();
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&cdir);
    }
    println!("failover chaos: {ROUNDS}/{ROUNDS} rounds passed");
}

/// Equal `--failover-timeout-ms`, distinct seeds: the seeded jitter is
/// the tie-break. Exactly one candidate promotes; the other's
/// pre-promotion sweep discovers the winner and joins it instead of
/// splitting the cluster into dueling primaries.
#[test]
fn dueling_candidates_tie_broken_by_seed() {
    const TIMEOUT_MS: u64 = 400;
    let timeout = Duration::from_millis(TIMEOUT_MS);
    // The promotion deadline is deterministic per seed: pick two seeds
    // whose deadlines are far enough apart that the loser's sweep
    // always sees the winner already promoted.
    let (a, b) = support::winner_loser_seeds(timeout);
    println!(
        "seeds {a}/{b}: deadlines {:?} vs {:?}",
        support::failover_deadline(timeout, a),
        support::failover_deadline(timeout, b)
    );

    let pdir = temp_dir("duel-p");
    let adir = temp_dir("duel-a");
    let bdir = temp_dir("duel-b");
    let primary = ServeChild::spawn(&pdir, &["--fsync", "batch:4"]);
    let paddr = primary.addr.clone();
    let spawn_candidate = |dir: &Path, seed: u64, other: &str| {
        ServeChild::spawn(
            dir,
            &[
                "--fsync",
                "batch:4",
                "--candidate",
                "--replicate-from",
                // The rotation names the sibling so the pre-promotion
                // sweep can find an already-promoted winner.
                &format!("{paddr},{other}"),
                "--failover-timeout-ms",
                &format!("{TIMEOUT_MS}"),
                "--failover-seed",
                &format!("{seed}"),
                "--repl-heartbeat-ms",
                "50",
            ],
        )
    };
    let cand_a = spawn_candidate(&adir, a, "127.0.0.1:1");
    let cand_b = spawn_candidate(&bdir, b, &cand_a.addr);
    let (aaddr, baddr) = (cand_a.addr.clone(), cand_b.addr.clone());
    write_retrying(&[&paddr], "DUEL000");
    await_epoch_match(&paddr, &aaddr, "candidate A catchup");
    await_epoch_match(&paddr, &baddr, "candidate B catchup");

    primary.kill();
    // The earlier deadline (seed `a`) must win the promotion...
    await_role(&aaddr, "primary", Duration::from_secs(30), "duel winner");
    // ...and the later one must stay subordinate: its sweep finds the
    // winner, so it keeps tailing instead of promoting. Give it past
    // its own deadline (plus slack) to prove it held fire.
    std::thread::sleep(support::failover_deadline(timeout, b) + Duration::from_millis(500));
    let (_, role_b, term_b) = Conn::to(&baddr).status();
    assert_eq!(
        role_b, "candidate",
        "the losing candidate must not also promote (split brain)"
    );
    let (_, role_a, term_a) = Conn::to(&aaddr).status();
    assert_eq!(role_a, "primary");
    assert_eq!(term_a, 1);
    assert_eq!(term_b, 1, "the loser must adopt the winner's term");

    // The loser serves the winner's lineage: a write on the winner is
    // readable on the loser at its exact epoch.
    write_retrying(&[&aaddr], "DUEL001");
    await_epoch_match(&aaddr, &baddr, "loser tails winner");
    assert_eq!(
        Conn::to(&baddr)
            .submarine_id_counts()
            .get("DUEL001")
            .copied(),
        Some(1),
        "post-duel write must replicate to the losing candidate"
    );

    cand_b.kill();
    cand_a.kill();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&adir);
    let _ = std::fs::remove_dir_all(&bdir);
}

/// A SIGKILLed primary with an acked-but-unshipped WAL suffix: those
/// term-0 writes never reached the candidate (single-copy acks do not
/// survive the primary), so after failover the rejoining node's
/// divergent suffix must be *retracted* by the new primary's snapshot
/// bootstrap — never merged — while every write acked on the new term
/// survives on both nodes. A final solo restart proves the retraction
/// is durable (the old suffix was physically truncated, not shadowed).
#[test]
fn stale_primary_sigkill_unshipped_suffix_truncated() {
    let pdir = temp_dir("suffix-p");
    let cdir = temp_dir("suffix-c");
    let primary = ServeChild::spawn(&pdir, &["--fsync", "always"]);
    let paddr = primary.addr.clone();
    let candidate_args = |paddr: &str| {
        vec![
            "--fsync".to_string(),
            "always".to_string(),
            "--candidate".to_string(),
            "--replicate-from".to_string(),
            paddr.to_string(),
            "--failover-timeout-ms".to_string(),
            "300".to_string(),
            "--failover-seed".to_string(),
            "9".to_string(),
            "--repl-heartbeat-ms".to_string(),
            "50".to_string(),
        ]
    };
    let args = candidate_args(&paddr);
    let argrefs: Vec<&str> = args.iter().map(String::as_str).collect();
    let candidate = ServeChild::spawn(&cdir, &argrefs);
    let caddr = candidate.addr.clone();

    // Shipped prefix: on both nodes.
    for i in 0..3 {
        write_retrying(&[&paddr], &format!("SHIP{i:03}"));
    }
    await_epoch_match(&paddr, &caddr, "shipped prefix");

    // Unshipped suffix: the candidate is a corpse while these ack, so
    // they exist only in the primary's WAL.
    candidate.kill();
    for i in 0..3 {
        write_retrying(&[&paddr], &format!("LOST{i:03}"));
    }
    primary.kill();

    // The candidate restarts over its own WAL, finds no primary, and
    // promotes. The unshipped suffix is not on it — by design.
    let candidate = ServeChild::spawn(&cdir, &argrefs);
    let caddr = candidate.addr.clone();
    await_role(&caddr, "primary", Duration::from_secs(30), "promotion");
    let (_, _, new_term) = Conn::to(&caddr).status();
    assert_eq!(new_term, 1);
    for i in 0..3 {
        write_retrying(&[&caddr], &format!("NEWT{i:03}"));
    }

    // The deposed primary wakes up carrying the divergent suffix.
    let deposed = ServeChild::spawn(&pdir, &["--fsync", "always", "--peers", &caddr]);
    let daddr = deposed.addr.clone();
    await_role(&daddr, "follower", Duration::from_secs(30), "demotion");
    await_epoch_match(&caddr, &daddr, "rejoin");

    let expect = |counts: &BTreeMap<String, usize>, addr: &str| {
        for i in 0..3 {
            assert_eq!(
                counts.get(&format!("SHIP{i:03}")).copied(),
                Some(1),
                "shipped prefix write missing on {addr}"
            );
            assert_eq!(
                counts.get(&format!("NEWT{i:03}")).copied(),
                Some(1),
                "acked-on-new-term write missing on {addr}"
            );
            assert_eq!(
                counts.get(&format!("LOST{i:03}")).copied(),
                None,
                "fenced unshipped suffix leaked back into the lineage on {addr}"
            );
        }
    };
    let ccounts = Conn::to(&caddr).submarine_id_counts();
    let dcounts = Conn::to(&daddr).submarine_id_counts();
    println!("new primary {caddr}: {ccounts:?}");
    println!("rejoined    {daddr}: {dcounts:?}");
    expect(&ccounts, &caddr);
    expect(&dcounts, &daddr);

    // Durability of the retraction: SIGKILL the rejoined node and
    // recover it standalone — the truncated suffix must not resurrect.
    deposed.kill();
    let solo = ServeChild::spawn(&pdir, &[]);
    let mut conn = solo.connect();
    let (_, _, term) = conn.status();
    assert_eq!(term, 1, "recovery must land on the adopted term");
    expect(&conn.submarine_id_counts(), "solo restart");

    solo.kill();
    candidate.kill();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&cdir);
}
