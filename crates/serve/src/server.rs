//! The TCP front end: a listener thread accepting connections, one
//! handler thread per connection, speaking the line protocol of
//! [`crate::protocol`]. All handlers share one [`Service`] — the
//! worker pool, not the connection count, bounds execution
//! concurrency.

use crate::protocol::{encode_protocol_error, encode_reply_with_trace, parse_traced, WireRequest};
use crate::service::Service;
use intensio_net::{NetConn, NetListener};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running TCP server. Dropping it (or calling
/// [`Server::shutdown`]) stops accepting new connections and then
/// *drains*: every established connection finishes its in-flight
/// request — the client always receives a complete reply line, never a
/// half-written frame — and closes on its next read (handlers poll the
/// stop flag every [`READ_TICK`]).
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Live connection-handler threads, for the shutdown drain.
    conns: Arc<AtomicUsize>,
    accept_thread: Option<JoinHandle<()>>,
}

/// How often a blocked connection read wakes up to check the stop flag.
const READ_TICK: std::time::Duration = std::time::Duration::from_millis(100);

/// How long [`Server::shutdown`] waits for established connections to
/// finish their in-flight request and close.
const DRAIN_WAIT: std::time::Duration = std::time::Duration::from_secs(5);

/// Bound on the shutdown self-connect that unblocks `accept()`. The
/// connect is fault-exempt ([`intensio_net::connect_raw`]): a node with
/// its links severed by an injected partition must still shut down.
const UNBLOCK_CONNECT_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(500);

/// Bound on a [`Client::connect`] attempt — the shell, the load
/// generator, and tests all go through it, and none of them may hang
/// forever on an unreachable address.
const CLIENT_CONNECT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:7878"`, or port `0` for an
    /// ephemeral port) and start serving `service`.
    pub fn bind(service: Arc<Service>, addr: &str) -> std::io::Result<Server> {
        let listener = NetListener::bind(service.net_label(), addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(AtomicUsize::new(0));
        let accept_stop = stop.clone();
        let accept_conns = conns.clone();
        let accept_thread = std::thread::Builder::new()
            .name("intensio-accept".to_string())
            .spawn(move || accept_loop(&listener, &service, &accept_stop, &accept_conns))?;
        Ok(Server {
            addr,
            stop,
            conns,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections, join the accept thread, and wait up
    /// to [`DRAIN_WAIT`] for established connections to drain.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return; // already stopped and drained (shutdown, then drop)
        }
        // Unblock the accept() call with a no-op connection. Fault
        // exempt: an injected `net.partition` isolating this node must
        // never turn its own shutdown into a deadlock.
        let _ = intensio_net::connect_raw(&self.addr.to_string(), UNBLOCK_CONNECT_TIMEOUT);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // Drain: every handler completes its in-flight request (a full
        // reply line) and exits on its next read tick.
        let deadline = std::time::Instant::now() + DRAIN_WAIT;
        while self.conns.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

/// Decrements the live-connection count when a handler exits, however
/// it exits.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(
    listener: &NetListener,
    service: &Arc<Service>,
    stop: &Arc<AtomicBool>,
    conns: &Arc<AtomicUsize>,
) {
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => continue,
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let service = service.clone();
        let stop = stop.clone();
        // Count the connection before the handler thread exists, so a
        // shutdown racing this accept still waits for it.
        conns.fetch_add(1, Ordering::SeqCst);
        let guard = ConnGuard(conns.clone());
        let spawned = std::thread::Builder::new()
            .name("intensio-conn".to_string())
            .spawn(move || {
                let _guard = guard;
                let _ = handle_connection(stream, &service, &stop);
            });
        if spawned.is_err() {
            // ConnGuard moved into the failed closure was dropped by
            // spawn's error path, so the count is already corrected.
            continue;
        }
    }
}

fn handle_connection(stream: NetConn, service: &Service, stop: &AtomicBool) -> std::io::Result<()> {
    // One small request line begets one small response line: waiting to
    // coalesce segments (Nagle) only adds delayed-ACK latency.
    stream.set_nodelay(true)?;
    // Wake periodically so a blocked read notices the stop flag; a
    // partial line survives timeouts in `line` below.
    stream.set_read_timeout(Some(READ_TICK))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // client closed
            Ok(_) => {
                let request = std::mem::take(&mut line);
                // Decode the optional `#trace` prefix; if the client
                // sent none, admission may still mint a sampled trace —
                // minting here (not in the worker) lets the reply echo
                // the id so the client can stitch REDIRECT hops.
                let (ctx, parsed) = parse_traced(&request);
                let mut response = match parsed {
                    Ok(WireRequest::Quit) => return Ok(()),
                    Ok(WireRequest::Execute(req)) => {
                        let ctx = ctx.or_else(intensio_obs::start_trace);
                        encode_reply_with_trace(&service.submit_traced(req, None, ctx), ctx)
                    }
                    Ok(WireRequest::ExecuteAt(req, min_epoch)) => {
                        let ctx = ctx.or_else(intensio_obs::start_trace);
                        encode_reply_with_trace(
                            &service.submit_traced(req, Some(min_epoch), ctx),
                            ctx,
                        )
                    }
                    Ok(WireRequest::Replicate(from, peer_term, node)) => {
                        // The connection stops being request/response and
                        // becomes a one-way record stream until the
                        // follower disconnects or the server stops. The
                        // handshake's `node=` token names the follower, so
                        // link faults (net.dup, net.torn_write, ...) can
                        // target exactly this stream from the primary side.
                        if let Some(label) = node {
                            writer.set_peer_label(&label);
                        }
                        return service.replicate(from, peer_term, &mut writer, stop);
                    }
                    Err(message) => encode_protocol_error(&message),
                };
                // One write per reply: its line and newline leave together.
                response.push('\n');
                writer.write_all(response.as_bytes())?;
                writer.flush()?;
                // Drain semantics: the in-flight request just got its
                // complete reply; during shutdown, close instead of
                // waiting for another.
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle tick. On shutdown there is no complete request in
                // flight (a partial line is abandoned, never half-run).
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// A minimal blocking client for the line protocol, used by the shell's
/// `--connect` mode, the load generator, and tests. Connections go
/// through [`intensio_net`], so a chaos drill can sever, skew, or tear
/// a specific client's link like any cluster link.
pub struct Client {
    writer: NetConn,
    reader: BufReader<NetConn>,
}

impl Client {
    /// Connect to a running server under the default `client` label,
    /// bounded by [`CLIENT_CONNECT_TIMEOUT`].
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Client::connect_as("client", addr)
    }

    /// Connect under an explicit net label — chaos harnesses label
    /// their probes so fault specs can hit (or spare) them by name.
    pub fn connect_as(label: &str, addr: &str) -> std::io::Result<Client> {
        let stream = intensio_net::connect_timeout(label, addr, CLIENT_CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Connect with bounded, jittered retry: up to the dialer's budget
    /// of attempts before the last error surfaces. The shell's
    /// failover-redirect follow uses this — a promotion can land a few
    /// hundred milliseconds after the `REDIRECT` that names it.
    pub fn connect_retrying(addr: &str) -> std::io::Result<Client> {
        let mut dialer = intensio_net::Dialer::new("client", addr);
        let stream = dialer.dial()?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Send one raw request line and read the one-line JSON response.
    pub fn roundtrip(&mut self, request_line: &str) -> std::io::Result<String> {
        self.writer.write_all(request_line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Send `QUIT` and close.
    pub fn quit(mut self) {
        let _ = self.writer.write_all(b"QUIT\n");
        let _ = self.writer.flush();
    }
}
