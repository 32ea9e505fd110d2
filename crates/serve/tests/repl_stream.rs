//! Robustness of the follower's `#repl` frame reader, driven over a
//! real TCP stream by a *scripted* fake primary — so the suite controls
//! exactly which malformed, duplicated, or gapped frames hit the
//! follower's apply loop.
//!
//! The contract under a hostile stream:
//!
//! 1. **No panic, ever.** Truncated frames, interleaved garbage, and
//!    duplicated records at worst cost the stream a reconnect.
//! 2. **Duplicate-epoch skip.** A record at or below the follower's
//!    epoch is the bootstrap/reconnect overlap: skipped in place, the
//!    stream stays up, and the row is never applied twice.
//! 3. **A torn frame never half-applies.** The follower's epoch only
//!    moves when a whole record applies; after the drop it re-requests
//!    from the same epoch.
//! 4. **An epoch gap forces a re-sync.** A record further ahead than
//!    `local + 1` is a chain break: the stream drops and the follower
//!    re-requests from its durable epoch (where a real primary would
//!    ship the missing tail or a snapshot).
//! 5. **A snapshot never rewinds within a term.** A same-term snapshot
//!    below the follower's epoch is refused (`repl.snapshot_regressions`)
//!    and the follower re-requests from its own epoch.
//! 6. **A higher term at or below the local epoch forces a full
//!    re-bootstrap.** The local suffix belongs to a fenced lineage, so
//!    the follower's next handshake asks for everything, from epoch 0.

mod support;

use intensio_repl::StreamMsg;
use intensio_serve::json::{self, Json};
use intensio_serve::{Client, Server, Service, ServiceConfig};
use intensio_wal::Record;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// The fake primary: a plain listener whose accept loop the test drives
/// by hand, one scripted connection at a time.
struct FakePrimary {
    listener: TcpListener,
    addr: String,
}

/// One accepted replication connection and the handshake it carried.
struct FakeStream {
    stream: TcpStream,
    /// The `<from-epoch>` the follower re-requested.
    from: u64,
}

impl FakePrimary {
    fn bind() -> FakePrimary {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        FakePrimary { listener, addr }
    }

    /// Block until the follower (re)connects and sends its
    /// `REPLICATE <from> …` hello.
    fn accept(&self) -> FakeStream {
        let (stream, _) = self.listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut hello = String::new();
        reader.read_line(&mut hello).unwrap();
        let mut tokens = hello.split_whitespace();
        assert_eq!(tokens.next(), Some("REPLICATE"), "bad hello: {hello:?}");
        let from: u64 = tokens.next().expect("from epoch").parse().unwrap();
        FakeStream { stream, from }
    }
}

impl FakeStream {
    fn send_line(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
        self.stream.flush().unwrap();
    }

    fn send(&mut self, msg: &StreamMsg) {
        self.send_line(&msg.encode());
    }

    fn send_ok(&mut self, epoch: u64) {
        self.send(&StreamMsg::Ok { epoch, term: 0 });
    }

    fn send_write(&mut self, epoch: u64, id: &str) {
        self.send(&StreamMsg::Record {
            rec: Record::write(
                epoch,
                epoch,
                &format!("append to SUBMARINE (Id = \"{id}\", Name = \"Wire\", Class = \"0101\")"),
            ),
            trace: None,
        });
    }

    /// Write a prefix of an encoded record frame — no newline, no rest —
    /// and flush. Followed by a close, this is a primary dying (or a
    /// link tearing) mid-frame.
    fn send_torn_write(&mut self, epoch: u64, id: &str, keep: usize) {
        let line = StreamMsg::Record {
            rec: Record::write(
                epoch,
                epoch,
                &format!("append to SUBMARINE (Id = \"{id}\", Name = \"Torn\", Class = \"0101\")"),
            ),
            trace: None,
        }
        .encode();
        let mut keep = keep.min(line.len().saturating_sub(1)).max(1);
        // Cutting exactly where the hex body starts would leave a
        // well-formed frame with an *empty* body — a different (valid)
        // record, not a torn one. Every other cut point yields a frame
        // the reader must reject.
        let hex_start = line.rfind(' ').unwrap() + 1;
        if keep == hex_start {
            keep += 1;
        }
        self.stream.write_all(&line.as_bytes()[..keep]).unwrap();
        self.stream.flush().unwrap();
    }
}

/// A follower whose only upstream is the fake primary. Heartbeat cadence
/// is set high so the per-stream half-open clock (3× cadence) never
/// fires under a deliberately silent scripted stream.
fn follower(upstream: &str) -> (Server, Client) {
    let db = intensio_shipdb::ship_database().unwrap();
    let model = intensio_shipdb::ship_model().unwrap();
    let cfg = ServiceConfig {
        workers: 2,
        learn_on_open: false,
        replicate_from: Some(upstream.to_string()),
        repl_heartbeat: Duration::from_secs(30),
        ..ServiceConfig::default()
    };
    let service = std::sync::Arc::new(Service::with_config(db, model, cfg).unwrap());
    let server = Server::bind(service, "127.0.0.1:0").unwrap();
    let client = Client::connect(&server.local_addr().to_string()).unwrap();
    (server, client)
}

fn epoch_of(client: &mut Client) -> u64 {
    let reply = client.roundtrip("STATS").expect("stats");
    let v = json::parse(&reply).unwrap_or_else(|e| panic!("undecodable reply ({e}): {reply}"));
    v.get("epoch").and_then(Json::as_u64).expect("epoch")
}

fn await_epoch(client: &mut Client, want: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let have = epoch_of(client);
        if have >= want {
            assert_eq!(have, want, "{what}: follower overshot epoch {want}");
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: follower stuck at epoch {have}, want {want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn submarine_id_counts(client: &mut Client) -> BTreeMap<String, usize> {
    let reply = client
        .roundtrip("SQL SELECT Id FROM SUBMARINE")
        .expect("id query");
    let v = json::parse(&reply).expect("id query reply");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
    let mut counts = BTreeMap::new();
    for row in v.get("rows").and_then(Json::as_array).expect("rows") {
        if let Some(id) = row
            .as_array()
            .and_then(|cells| cells.first())
            .and_then(Json::as_str)
        {
            *counts.entry(id.trim().to_string()).or_insert(0) += 1;
        }
    }
    counts
}

#[test]
fn duplicated_records_are_skipped_in_place_without_reapplying() {
    let primary = FakePrimary::bind();
    let (server, mut client) = follower(&primary.addr);
    let mut conn = primary.accept();
    let base = conn.from;

    conn.send_ok(base);
    conn.send_write(base + 1, "WDUP001");
    // The stream stutters: the same frame again (net.dup does exactly
    // this), then twice more for good measure.
    conn.send_write(base + 1, "WDUP001");
    conn.send_write(base + 1, "WDUP001");
    // The stream must still be live after the skips — this next record
    // only applies if the duplicates didn't cost us the connection.
    conn.send_write(base + 2, "WDUP002");
    conn.send(&StreamMsg::Heartbeat {
        epoch: base + 2,
        term: 0,
    });

    await_epoch(&mut client, base + 2, "post-duplicate apply");
    let counts = submarine_id_counts(&mut client);
    assert_eq!(counts.get("WDUP001"), Some(&1), "duplicate was re-applied");
    assert_eq!(counts.get("WDUP002"), Some(&1));
    drop(conn);
    server.shutdown();
}

#[test]
fn interleaved_garbage_drops_the_stream_and_the_rejoin_heals() {
    let primary = FakePrimary::bind();
    let (server, mut client) = follower(&primary.addr);
    let mut conn = primary.accept();
    let base = conn.from;

    conn.send_ok(base);
    conn.send_write(base + 1, "WGBG001");
    await_epoch(&mut client, base + 1, "pre-garbage apply");
    // Three shapes of garbage a broken peer (or a torn earlier frame's
    // tail) could interleave: a non-stream line, a stream line with an
    // unknown verb, and a record whose body is not hex.
    conn.send_line("SQL SELECT 1");

    // The reader must drop the stream (never guess) and re-request from
    // the epoch it durably holds — not from 0, not past the garbage.
    let mut conn = primary.accept();
    assert_eq!(conn.from, base + 1, "rejoin must resume at the held epoch");
    conn.send_ok(base + 1);
    conn.send_line("#repl bogus 1 2");

    let mut conn = primary.accept();
    assert_eq!(conn.from, base + 1);
    conn.send_ok(base + 1);
    conn.send_line("#repl record write 0 2 2 zz");

    let mut conn = primary.accept();
    assert_eq!(conn.from, base + 1);
    conn.send_ok(base + 1);
    conn.send_write(base + 2, "WGBG002");
    conn.send(&StreamMsg::Heartbeat {
        epoch: base + 2,
        term: 0,
    });

    await_epoch(&mut client, base + 2, "post-garbage heal");
    let counts = submarine_id_counts(&mut client);
    assert_eq!(counts.get("WGBG001"), Some(&1));
    assert_eq!(counts.get("WGBG002"), Some(&1));
    drop(conn);
    server.shutdown();
}

#[test]
fn torn_frames_never_half_apply_across_any_cut_point() {
    let seed = support::chaos_seed(0x7EA6_F8A3);
    println!("torn-frame seed: {seed} (set INTENSIO_CHAOS_SEED to reproduce)");
    let mut rng = intensio_fault::Rng::new(seed);

    let primary = FakePrimary::bind();
    let (server, mut client) = follower(&primary.addr);

    // Property loop: each round tears the next record at a random byte
    // (flush, then close — the classic mid-frame peer death), and the
    // follower must come back asking for the epoch it actually holds.
    let mut expected = {
        let conn = primary.accept();
        conn.from
    };
    // Round 0's accept above consumed the handshake without serving it;
    // the follower will reconnect. Drive 6 torn rounds.
    let mut intact: Vec<String> = Vec::new();
    for round in 0..6u32 {
        let mut conn = primary.accept();
        assert_eq!(
            conn.from, expected,
            "round {round}: a torn frame moved the follower's epoch"
        );
        conn.send_ok(expected);
        let good = format!("WTORN{round:02}");
        conn.send_write(expected + 1, &good);
        await_epoch(&mut client, expected + 1, "intact record before the tear");
        intact.push(good);
        // Tear anywhere in the frame, including inside the hex body.
        conn.send_torn_write(expected + 2, &format!("XTORN{round:02}"), {
            (rng.next_u64() % 90) as usize + 1
        });
        expected += 1;
        drop(conn); // close: the torn tail is all the follower ever gets
    }

    // Final intact connection: the chain continues from the held epoch.
    let mut conn = primary.accept();
    assert_eq!(conn.from, expected);
    conn.send_ok(expected);
    conn.send_write(expected + 1, "WTORNFI");
    await_epoch(&mut client, expected + 1, "post-tear heal");

    let counts = submarine_id_counts(&mut client);
    for id in &intact {
        assert_eq!(
            counts.get(id),
            Some(&1),
            "intact record {id} lost or doubled"
        );
    }
    assert_eq!(counts.get("WTORNFI"), Some(&1));
    for round in 0..6u32 {
        assert_eq!(
            counts.get(&format!("XTORN{round:02}")),
            None,
            "round {round}: a torn frame half-applied"
        );
    }
    drop(conn);
    server.shutdown();
}

#[test]
fn epoch_gap_forces_resync_from_the_durable_epoch() {
    let primary = FakePrimary::bind();
    let (server, mut client) = follower(&primary.addr);
    let mut conn = primary.accept();
    let base = conn.from;

    conn.send_ok(base);
    conn.send_write(base + 1, "WGAP001");
    await_epoch(&mut client, base + 1, "pre-gap apply");
    // Skip an epoch: a chain break the follower must refuse to jump.
    conn.send_write(base + 3, "WGAP003");

    let mut conn = primary.accept();
    assert_eq!(
        conn.from,
        base + 1,
        "the gap record must not advance the follower"
    );
    // Re-sync: ship the missing tail in order (a real primary would
    // pick log tail vs snapshot here).
    conn.send_ok(base + 1);
    conn.send_write(base + 2, "WGAP002");
    conn.send_write(base + 3, "WGAP003");

    await_epoch(&mut client, base + 3, "post-gap resync");
    let counts = submarine_id_counts(&mut client);
    for id in ["WGAP001", "WGAP002", "WGAP003"] {
        assert_eq!(counts.get(id), Some(&1), "{id} lost or doubled by the gap");
    }
    assert_eq!(epoch_of(&mut client), base + 3);
    drop(conn);
    server.shutdown();
}

#[test]
fn same_term_snapshot_below_the_local_epoch_is_refused() {
    let primary = FakePrimary::bind();
    let (server, mut client) = follower(&primary.addr);
    let mut conn = primary.accept();
    let base = conn.from;

    conn.send_ok(base);
    conn.send_write(base + 1, "WREG001");
    conn.send_write(base + 2, "WREG002");
    await_epoch(&mut client, base + 2, "pre-snapshot apply");
    // A same-term snapshot one epoch back: installing it would silently
    // drop WREG002.
    let db = intensio_shipdb::ship_database().unwrap();
    conn.send(&StreamMsg::Snapshot {
        epoch: base + 1,
        data_version: base + 1,
        term: 0,
        db: intensio_repl::snapshot::db_to_bytes(&db).unwrap(),
        rules: None,
    });
    // End the stream either way, so a follower that installed the
    // snapshot reconnects too, from the rewound epoch.
    drop(conn);

    let conn = primary.accept();
    assert_eq!(
        conn.from,
        base + 2,
        "the snapshot must not rewind the follower"
    );
    let counts = submarine_id_counts(&mut client);
    for id in ["WREG001", "WREG002"] {
        assert_eq!(
            counts.get(id),
            Some(&1),
            "{id} lost by the refused snapshot"
        );
    }
    drop(conn);
    server.shutdown();
}

#[test]
fn higher_term_record_at_the_local_epoch_forces_a_full_rebootstrap() {
    let primary = FakePrimary::bind();
    let (server, mut client) = follower(&primary.addr);
    let mut conn = primary.accept();
    let base = conn.from;

    conn.send_ok(base);
    conn.send_write(base + 1, "WFRK001");
    conn.send_write(base + 2, "WFRK002");
    await_epoch(&mut client, base + 2, "pre-fork apply");
    // A new primary forked at `base + 1`: its record there carries a
    // higher term, so this node's suffix is a fenced lineage.
    conn.send(&StreamMsg::Record {
        rec: Record::write(
            base + 1,
            base + 1,
            "append to SUBMARINE (Id = \"WFRK101\", Name = \"Fork\", Class = \"0101\")",
        )
        .with_term(1),
        trace: None,
    });
    // End the stream either way, so a follower that skipped the record
    // reconnects too (from its own epoch, which fails the check below).
    drop(conn);

    let conn = primary.accept();
    assert_eq!(
        conn.from, 0,
        "only a full snapshot may rewind a fenced suffix"
    );
    drop(conn);
    server.shutdown();
}

#[test]
fn an_unreachable_primary_is_retried_with_a_growing_backoff() {
    // Nothing listens on the reserved port: every attempt is refused at
    // once, so only the backoff spaces them. Its delays start at 100 ms
    // and double, each jittered to at least half: attempts at 0 ms and
    // then no sooner than 50, 150, 350 and 750 ms — at most five by
    // 1.3 s. A loop that retried at once, or never grew its delay,
    // reconnects far more often.
    let cfg = ServiceConfig {
        workers: 1,
        learn_on_open: false,
        replicate_from: Some(support::reserve_addr()),
        ..ServiceConfig::default()
    };
    let db = intensio_shipdb::ship_database().unwrap();
    let model = intensio_shipdb::ship_model().unwrap();
    let service = Service::with_config(db, model, cfg).unwrap();
    std::thread::sleep(Duration::from_millis(1_300));
    let reconnects = service
        .stats()
        .repl
        .expect("a follower reports replication")
        .reconnects;
    assert!(
        (2..=5).contains(&reconnects),
        "{reconnects} reconnects in 1.3 s"
    );
}
