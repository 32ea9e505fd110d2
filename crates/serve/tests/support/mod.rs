//! Shared TCP harness for the serve integration suites: spawning real
//! `serve` child processes, a line-protocol connection, and the
//! polling/audit helpers the replication, crash-recovery, failover, and
//! partition drills all need. Each test binary pulls this in with
//! `mod support;` — keep helpers here instead of copy-pasting them.
//!
//! The connection type deliberately uses a raw `TcpStream`, not
//! `intensio_net`: harness probes are the tests' control plane and must
//! keep working while the suite injects link faults into the nodes
//! under test.
#![allow(dead_code)]

use intensio_serve::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The process-wide induction counters: pairs reused, extended and
/// rebuilt (`induction.pairs_*`).
pub fn pair_counters() -> [u64; 3] {
    let m = intensio_obs::metrics();
    ["reused", "extended", "rebuilt"].map(|k| m.counter(&format!("induction.pairs_{k}")))
}

/// A fresh, empty scratch directory, unique per process and call.
pub fn temp_dir(tag: &str) -> std::path::PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("intensio-serve-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reserve an address for a child that other children must know at
/// spawn time (e.g. a primary polling its peers): bind an ephemeral
/// port, note it, release it. The tiny window between release and the
/// child's own bind is an accepted test-harness race.
pub fn reserve_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
    listener.local_addr().expect("reserved addr").to_string()
}

/// The reproducibility seed shared by the chaos suites: the
/// `INTENSIO_CHAOS_SEED` environment variable, or `default`.
pub fn chaos_seed(default: u64) -> u64 {
    intensio_fault::chaos_seed().unwrap_or(default)
}

/// The promotion deadline a `--candidate` with `--failover-timeout-ms`
/// `timeout` and `--failover-seed` `seed` draws (the same Backoff
/// construction the replicator uses).
pub fn failover_deadline(timeout: Duration, seed: u64) -> Duration {
    timeout / 2 + intensio_fault::Backoff::new(timeout, timeout, seed.wrapping_add(1)).delay_for(0)
}

/// Failover seeds `(winner, loser)` whose promotion deadlines are far
/// enough apart that the winner always promotes before the loser's
/// pre-promotion sweep runs. Deadlines are jittered into a
/// `[timeout, 1.5*timeout)` band, so scan a pool and take the extremes
/// — the widest gap the band offers — rather than hoping two fixed
/// seeds land far apart.
pub fn winner_loser_seeds(timeout: Duration) -> (u64, u64) {
    let deadline = |seed| failover_deadline(timeout, seed);
    let (win, lose) = (1u64..=64)
        .flat_map(|x| (1u64..=64).map(move |y| (x, y)))
        .filter(|(x, y)| x != y && deadline(*x) < deadline(*y))
        .max_by_key(|(x, y)| deadline(*y) - deadline(*x))
        .expect("seed pool yields a winner/loser pair");
    assert!(
        deadline(lose) - deadline(win) >= Duration::from_millis(150),
        "seed pool too narrow for a deterministic winner: {:?} vs {:?}",
        deadline(win),
        deadline(lose)
    );
    (win, lose)
}

/// A running `serve` child on an ephemeral port, SIGKILLed when
/// dropped so a failing test leaves no process behind.
pub struct ServeChild {
    pub child: Child,
    pub addr: String,
}

impl ServeChild {
    /// Spawn the serve binary in durable mode on an ephemeral port and
    /// wait for its "listening on" banner. `extra` appends flags after
    /// the `--addr 127.0.0.1:0 --data-dir … --workers 2 --quiet`
    /// baseline (pass `--no-learn` there when epochs must not move on
    /// their own).
    pub fn spawn(data_dir: &Path, extra: &[&str]) -> ServeChild {
        ServeChild::spawn_env(data_dir, extra, &[])
    }

    /// [`ServeChild::spawn`] with extra environment variables.
    pub fn spawn_env(data_dir: &Path, extra: &[&str], env: &[(&str, &str)]) -> ServeChild {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--workers")
            .arg("2")
            .arg("--quiet")
            .args(extra)
            .envs(env.iter().copied())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd.spawn().expect("spawn serve binary");
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("serve exited before listening")
                .expect("read serve stdout");
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("address after 'listening on'")
                    .to_string();
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || while let Some(Ok(_)) = lines.next() {});
        ServeChild { child, addr }
    }

    /// Connect to the child, retrying while it boots.
    pub fn connect(&self) -> Conn {
        Conn::to(&self.addr)
    }

    /// SIGKILL — no flush, no clean shutdown.
    pub fn kill(mut self) {
        self.child.kill().expect("SIGKILL serve child");
        let _ = self.child.wait();
    }

    /// The protocol has no daemon shutdown; tests always kill.
    pub fn shutdown(self) {
        self.kill();
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One line-oriented protocol connection.
pub struct Conn {
    pub stream: TcpStream,
    pub reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connect, retrying for up to 10 seconds (a just-spawned or
    /// just-restarted child may not be accepting yet).
    pub fn to(addr: &str) -> Conn {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Conn::try_to(addr) {
                Ok(conn) => return conn,
                Err(e) => {
                    assert!(Instant::now() < deadline, "cannot connect {addr}: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// One connect attempt, no retry — availability probes under an
    /// injected partition want the refusal, not a stall.
    pub fn try_to(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<String> {
        self.stream.write_all(request.as_bytes())?;
        self.stream.write_all(b"\n")?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed connection",
            ));
        }
        Ok(line)
    }

    pub fn json(&mut self, request: &str) -> Json {
        let reply = self.roundtrip(request).expect("roundtrip");
        json::parse(&reply).unwrap_or_else(|e| panic!("undecodable reply ({e}): {reply}"))
    }

    /// (epoch, role, term) from `STATS`.
    pub fn status(&mut self) -> (u64, String, u64) {
        let v = self.json("STATS");
        (
            v.get("epoch").and_then(Json::as_u64).expect("epoch"),
            v.get("role")
                .and_then(Json::as_str)
                .expect("role")
                .to_string(),
            v.get("term").and_then(Json::as_u64).expect("term"),
        )
    }

    /// (epoch, lag_epochs or MAX, records_applied or 0) from `STATS`.
    pub fn epoch_and_lag_and_applied(&mut self) -> (u64, u64, u64) {
        let v = self.json("STATS");
        let epoch = v.get("epoch").and_then(Json::as_u64).expect("epoch");
        let lag = v
            .get("repl")
            .and_then(|r| r.get("lag_epochs"))
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX);
        let applied = v
            .get("repl")
            .and_then(|r| r.get("records_applied"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        (epoch, lag, applied)
    }

    /// Append one SUBMARINE row; `Ok(epoch)` only when the server
    /// acknowledged the write with a well-formed reply. Panics on an
    /// explicit rejection — an I/O error (the kill, the partition) is
    /// the only acceptable failure.
    pub fn append(&mut self, id: &str) -> std::io::Result<u64> {
        let reply = self.roundtrip(&format!(
            "QUEL append to SUBMARINE (Id = \"{id}\", Name = \"Probe\", Class = \"0101\")"
        ))?;
        let v = json::parse(&reply).unwrap_or_else(|e| panic!("undecodable reply ({e}): {reply}"));
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "append rejected: {reply}"
        );
        Ok(v.get("epoch").and_then(Json::as_u64).expect("epoch in ack"))
    }

    /// All SUBMARINE ids currently visible.
    pub fn submarine_ids(&mut self) -> BTreeSet<String> {
        self.submarine_id_counts().into_keys().collect()
    }

    /// SUBMARINE ids with their multiplicities — the zero-loss/zero-dup
    /// audit needs to see a double application, which a set would hide.
    pub fn submarine_id_counts(&mut self) -> BTreeMap<String, usize> {
        let v = self.json("SQL SELECT Id FROM SUBMARINE");
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
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
}

/// Poll `addr` until its STATS shows `role`, returning elapsed time.
pub fn await_role(addr: &str, role: &str, within: Duration, what: &str) -> Duration {
    let start = Instant::now();
    let deadline = start + within;
    loop {
        let (_, r, _) = Conn::to(addr).status();
        if r == role {
            return start.elapsed();
        }
        assert!(
            Instant::now() < deadline,
            "{what}: {addr} never reached role {role} (still {r})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Append `id`, retrying across the address rotation until some node
/// acks. Idempotent under lost acks: a presence probe runs before
/// every (re-)issue. Returns the acked epoch.
pub fn write_retrying(targets: &[&str], id: &str) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(30);
    let probe = format!("SQL SELECT Id FROM SUBMARINE WHERE Id = \"{id}\"");
    let append =
        format!("QUEL append to SUBMARINE (Id = \"{id}\", Name = \"Fo Probe\", Class = \"0101\")");
    loop {
        for addr in targets {
            let Ok(stream) = TcpStream::connect(addr) else {
                continue;
            };
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut conn = Conn {
                reader: BufReader::new(stream.try_clone().unwrap()),
                stream,
            };
            if let Ok(line) = conn.roundtrip(&probe) {
                if let Ok(v) = json::parse(&line) {
                    if v.get("ok").and_then(Json::as_bool) == Some(true)
                        && v.get("rows").and_then(Json::as_array).map(<[Json]>::len) == Some(1)
                    {
                        // A lost ack: the append already applied.
                        return v.get("epoch").and_then(Json::as_u64).unwrap_or(0);
                    }
                }
            }
            if let Ok(line) = conn.roundtrip(&append) {
                if let Ok(v) = json::parse(&line) {
                    if v.get("ok").and_then(Json::as_bool) == Some(true) {
                        return v.get("epoch").and_then(Json::as_u64).expect("epoch");
                    }
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "no target acked write {id} within 30s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Wait until `follower_addr` converges to the exact epoch of
/// `primary_addr` (which must be quiescent).
pub fn await_epoch_match(primary_addr: &str, follower_addr: &str, what: &str) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (pe, _, _) = Conn::to(primary_addr).status();
        let (fe, _, _) = Conn::to(follower_addr).status();
        if pe == fe {
            return pe;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: {follower_addr} stuck at {fe}, primary at {pe}"
        );
        std::thread::sleep(Duration::from_millis(15));
    }
}
