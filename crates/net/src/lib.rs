//! # intensio-net
//!
//! The cluster transport layer: every TCP connection the cluster makes
//! — `REPLICATE` streams, heartbeats, `--peers` telemetry polls, client
//! protocol connections from the shell, the load generator, and tests —
//! goes through a [`NetConn`] instead of a bare `TcpStream`. That one
//! chokepoint buys three things the raw socket cannot give:
//!
//! * **Deterministic link faults**: a seeded spec such as
//!   `net.partition=a<->b`, `net.oneway=a->b`, `net.delay:50=a->b`,
//!   `net.dup=a->b`, `net.torn_write=a->b`, or `net.reset=a->b` severs,
//!   skews, duplicates, or tears exactly one direction of one link at
//!   runtime (`FAULT SET` / `INTENSIO_FAILPOINTS`), without touching any
//!   other traffic. The specs live in the one fault registry,
//!   `intensio-fault`, which matches them to a connection and answers
//!   with [`intensio_fault::LinkEffects`]; this crate applies those
//!   effects to the socket. Partitions *blackhole* rather than error
//!   on write — the nasty half-open behavior real partitions produce —
//!   and a severed read leaves buffered bytes in the socket, so healing
//!   a link floods the receiver with the delayed frames, exactly like a
//!   real switch coming back.
//! * **Timeouts everywhere** ([`connect_timeout`], [`DialConfig`]): no
//!   cluster connect may block forever; the shutdown self-connect uses
//!   the fault-*exempt* [`connect_raw`] so severing a node's own links
//!   can never deadlock its shutdown.
//! * **Bounded reconnection** ([`Dialer`]): a reconnecting client with
//!   `intensio_fault::Backoff` jitter and a total retry budget, so
//!   "retry forever" is a policy a caller must opt into, never a
//!   default.
//!
//! Connections carry an identity: a *local label* (the node name, e.g.
//! `--net-name a`) and a *peer* (label when known, address always).
//! Fault specs match either labels or raw addresses; in-process
//! harnesses that run several nodes in one process register
//! address→label aliases ([`intensio_fault::register_alias`]) so one
//! shared registry can still tell the nodes apart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dial;

pub use dial::{DialConfig, Dialer};

use intensio_fault::{link_effects, LinkEffects};

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long a read against a severed inbound link sleeps before
/// reporting `TimedOut`. Short enough that heal latency is dominated by
/// the caller's own tick, long enough not to spin.
const SEVERED_READ_TICK: Duration = Duration::from_millis(50);

/// The far end of a connection: its address always, its node label when
/// the handshake (or the dialer) has told us.
#[derive(Debug, Clone)]
pub struct Peer {
    /// Node label (`--net-name`) if known; `None` for an anonymous
    /// inbound connection.
    pub label: Option<String>,
    /// The socket address — the *listening* address for outbound
    /// connections, the ephemeral source address for inbound ones.
    pub addr: String,
}

/// A fault-injectable TCP connection. Reads and writes consult the
/// fault registry ([`intensio_fault::link_effects`]) with this
/// connection's identity before touching the socket; with no faults
/// armed the check is one relaxed atomic load.
#[derive(Debug)]
pub struct NetConn {
    stream: TcpStream,
    local: String,
    peer: Peer,
}

impl NetConn {
    /// Wrap an already-established stream (an accepted connection, or a
    /// clone handed across an API boundary).
    pub fn adopt(stream: TcpStream, local_label: &str, peer: Peer) -> NetConn {
        NetConn {
            stream,
            local: local_label.to_string(),
            peer,
        }
    }

    /// The peer identity this connection injects faults against.
    pub fn peer(&self) -> &Peer {
        &self.peer
    }

    /// Name the peer after the fact — the `REPLICATE ... node=<label>`
    /// handshake is how a primary learns which follower an anonymous
    /// inbound stream belongs to, which is what lets `net.dup=a->b`
    /// style specs tear exactly that stream.
    pub fn set_peer_label(&mut self, label: &str) {
        self.peer.label = Some(label.to_string());
    }

    /// Clone the underlying socket, keeping the identity.
    pub fn try_clone(&self) -> std::io::Result<NetConn> {
        Ok(NetConn {
            stream: self.stream.try_clone()?,
            local: self.local.clone(),
            peer: self.peer.clone(),
        })
    }

    /// See [`TcpStream::set_nodelay`].
    pub fn set_nodelay(&self, on: bool) -> std::io::Result<()> {
        self.stream.set_nodelay(on)
    }

    /// See [`TcpStream::set_read_timeout`].
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    /// See [`TcpStream::set_write_timeout`].
    pub fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_write_timeout(dur)
    }

    /// See [`TcpStream::shutdown`].
    pub fn shutdown(&self, how: std::net::Shutdown) -> std::io::Result<()> {
        self.stream.shutdown(how)
    }

    /// Effects currently armed against traffic *leaving* this node for
    /// the peer.
    fn outbound(&self) -> LinkEffects {
        link_effects(
            Some(&self.local),
            "",
            self.peer.label.as_deref(),
            &self.peer.addr,
        )
    }

    /// Effects currently armed against traffic *arriving* from the peer.
    fn inbound(&self) -> LinkEffects {
        link_effects(
            self.peer.label.as_deref(),
            &self.peer.addr,
            Some(&self.local),
            "",
        )
    }
}

impl Read for NetConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let fx = self.inbound();
        if fx.reset {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "net fault: connection reset by injected net.reset",
            ));
        }
        if let Some(d) = fx.delay {
            std::thread::sleep(d);
        }
        if fx.severed {
            // Do NOT consume the socket: a severed link buffers, and a
            // heal delivers everything late — delayed heartbeats and
            // stale frames are the whole point of the drill.
            std::thread::sleep(SEVERED_READ_TICK);
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "net fault: inbound link severed",
            ));
        }
        self.stream.read(buf)
    }
}

impl Write for NetConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let fx = self.outbound();
        if fx.reset {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "net fault: connection reset by injected net.reset",
            ));
        }
        if let Some(d) = fx.delay {
            std::thread::sleep(d);
        }
        if fx.severed {
            // Blackhole: the write "succeeds" but nothing crosses the
            // link. The sender learns nothing — half-open, as in life.
            return Ok(buf.len());
        }
        if fx.torn {
            // Half the bytes cross, then the link dies mid-frame.
            let half = (buf.len() / 2).max(1).min(buf.len());
            let _ = self.stream.write(&buf[..half]);
            let _ = self.stream.flush();
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "net fault: torn write",
            ));
        }
        if fx.dup {
            // The chunk crosses twice. Callers that write whole frames
            // per call (the replication stream does) therefore see
            // exact duplicate frames on the far side.
            self.stream.write_all(buf)?;
            self.stream.write_all(buf)?;
            return Ok(buf.len());
        }
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// A listener whose accepted connections are [`NetConn`]s labeled with
/// this node's name. Accepted peers start anonymous (ephemeral source
/// address, no label) until a handshake names them.
#[derive(Debug)]
pub struct NetListener {
    inner: TcpListener,
    label: String,
}

impl NetListener {
    /// Bind `addr` under the node label `local_label` (may be empty for
    /// an unlabeled node — faults then match it only via `*`).
    pub fn bind(local_label: &str, addr: &str) -> std::io::Result<NetListener> {
        Ok(NetListener {
            inner: TcpListener::bind(addr)?,
            label: local_label.to_string(),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    /// Accept one connection.
    pub fn accept(&self) -> std::io::Result<NetConn> {
        let (stream, peer) = self.inner.accept()?;
        Ok(NetConn::adopt(
            stream,
            &self.label,
            Peer {
                label: None,
                addr: peer.to_string(),
            },
        ))
    }
}

/// Resolve `addr` to its first socket address.
fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("no socket address for {addr:?}"),
        )
    })
}

/// Connect to `addr` as `local_label`, bounded by `timeout`, consulting
/// the fault registry first: a severed link refuses the connect
/// (fast, like a dropped SYN surfacing as a timeout) instead of letting
/// the caller wait out a real timeout.
pub fn connect_timeout(
    local_label: &str,
    addr: &str,
    timeout: Duration,
) -> std::io::Result<NetConn> {
    let fx = link_effects(Some(local_label), "", None, addr);
    if fx.reset {
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "net fault: connect reset by injected net.reset",
        ));
    }
    if let Some(d) = fx.delay {
        std::thread::sleep(d);
    }
    if fx.severed {
        return Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            format!("net fault: link to {addr} severed"),
        ));
    }
    let sock = resolve(addr)?;
    let stream = TcpStream::connect_timeout(&sock, timeout)?;
    Ok(NetConn::adopt(
        stream,
        local_label,
        Peer {
            label: None,
            addr: addr.to_string(),
        },
    ))
}

/// Fault-*exempt* bounded connect, for plumbing that must work even
/// when this node's own links are severed — the one user is the
/// listener's shutdown self-connect, where an injected partition would
/// otherwise deadlock the drain.
pub fn connect_raw(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    TcpStream::connect_timeout(&resolve(addr)?, timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use intensio_fault::{register_alias, scoped};
    use std::io::{BufRead, BufReader};
    use std::sync::mpsc;

    // Every link check these tests assert on runs on the test thread,
    // so faults are armed with `scoped` and tests run in parallel.

    /// An echo server that prefixes each received line with `echo:`.
    fn echo_server(label: &str) -> (String, mpsc::Receiver<()>) {
        let listener = NetListener::bind(label, "127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            while let Ok(conn) = listener.accept() {
                let mut writer = conn.try_clone().unwrap();
                let mut reader = BufReader::new(conn);
                let mut line = String::new();
                while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                    let msg = format!("echo:{line}");
                    if writer.write_all(msg.as_bytes()).is_err() {
                        break;
                    }
                    let _ = writer.flush();
                    line.clear();
                }
            }
            let _ = done_tx.send(());
        });
        (addr, done_rx)
    }

    fn roundtrip(conn: &mut NetConn, reader: &mut BufReader<NetConn>, msg: &str) -> String {
        conn.write_all(format!("{msg}\n").as_bytes()).unwrap();
        conn.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    #[test]
    fn plain_roundtrip_without_faults() {
        let (addr, _done) = echo_server("srv");
        let conn = connect_timeout("cli", &addr, Duration::from_secs(2)).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut conn = conn;
        assert_eq!(roundtrip(&mut conn, &mut reader, "hi"), "echo:hi");
    }

    #[test]
    fn partition_severs_connect_and_heals_on_clear() {
        let (addr, _done) = echo_server("b");
        register_alias(&addr, "b");
        let fault = scoped("net.partition", "a<->b").unwrap();
        let err = connect_timeout("a", &addr, Duration::from_secs(2)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        // An uninvolved node still gets through.
        assert!(connect_timeout("c", &addr, Duration::from_secs(2)).is_ok());
        drop(fault);
        assert!(connect_timeout("a", &addr, Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn oneway_blackholes_one_direction_only() {
        let (addr, _done) = echo_server("b");
        register_alias(&addr, "b");
        let conn = connect_timeout("a", &addr, Duration::from_secs(2)).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut conn = conn;
        assert_eq!(roundtrip(&mut conn, &mut reader, "pre"), "echo:pre");
        // Sever a->b: writes blackhole (Ok, nothing echoed back).
        let fault = scoped("net.oneway", "a->b").unwrap();
        conn.write_all(b"dropped\n").unwrap();
        conn.flush().unwrap();
        let mut line = String::new();
        assert!(reader.read_line(&mut line).is_err(), "nothing should echo");
        // Heal: traffic flows again, the dropped line never arrives.
        drop(fault);
        assert_eq!(roundtrip(&mut conn, &mut reader, "post"), "echo:post");
    }

    #[test]
    fn severed_read_buffers_until_heal() {
        let (addr, _done) = echo_server("b");
        register_alias(&addr, "b");
        let conn = connect_timeout("a", &addr, Duration::from_secs(2)).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut conn = conn;
        // Sever the inbound side only; the echo still lands in the
        // socket buffer and must arrive after the heal.
        let fault = scoped("net.oneway", "b->a").unwrap();
        conn.write_all(b"late\n").unwrap();
        conn.flush().unwrap();
        let mut line = String::new();
        let err = reader.read_line(&mut line).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        drop(fault);
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "echo:late");
    }

    #[test]
    fn dup_duplicates_whole_frames() {
        let (addr, _done) = echo_server("b");
        register_alias(&addr, "b");
        let conn = connect_timeout("a", &addr, Duration::from_secs(2)).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut conn = conn;
        let _fault = scoped("net.dup", "a->b").unwrap();
        conn.write_all(b"twice\n").unwrap();
        conn.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "echo:twice");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "echo:twice", "frame must arrive twice");
    }

    #[test]
    fn torn_write_ships_half_then_fails() {
        let (addr, _done) = echo_server("b");
        register_alias(&addr, "b");
        let mut conn = connect_timeout("a", &addr, Duration::from_secs(2)).unwrap();
        let _fault = scoped("net.torn_write", "a->b*1").unwrap();
        let err = conn.write_all(b"0123456789\n").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
        // The *1 budget is spent: the next write goes through whole.
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        conn.write_all(b"whole\n").unwrap();
        conn.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        // The torn half ("01234…") prefixes the healthy frame's line.
        assert!(line.contains("whole"), "got {line:?}");
    }

    #[test]
    fn reset_fails_both_directions() {
        let (addr, _done) = echo_server("b");
        register_alias(&addr, "b");
        let mut conn = connect_timeout("a", &addr, Duration::from_secs(2)).unwrap();
        let _fault = scoped("net.reset", "a<->b").unwrap();
        let err = conn.write_all(b"x\n").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        let mut buf = [0u8; 8];
        let err = conn.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn delay_skews_the_link() {
        let (addr, _done) = echo_server("b");
        register_alias(&addr, "b");
        let conn = connect_timeout("a", &addr, Duration::from_secs(2)).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut conn = conn;
        let _fault = scoped("net.delay:40", "a->b").unwrap();
        let t0 = std::time::Instant::now();
        assert_eq!(roundtrip(&mut conn, &mut reader, "slow"), "echo:slow");
        assert!(t0.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn connect_raw_ignores_faults() {
        let (addr, _done) = echo_server("b");
        register_alias(&addr, "b");
        let _fault = scoped("net.partition", "*<->b").unwrap();
        assert!(connect_raw(&addr, Duration::from_secs(2)).is_ok());
    }
}
