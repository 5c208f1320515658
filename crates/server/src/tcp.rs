//! The `std::net` TCP front end: an accept loop plus one thread per
//! connection, speaking the [`crate::protocol`] line protocol over a
//! shared [`Server`].
//!
//! Connections submit through a [`crate::ServerHandle`] and block on
//! their ticket — the classic thread-per-connection shape, which is all
//! a closed-loop serving client needs. A `shutdown` command (or
//! [`TcpServer::stop`]) stops the accept loop, joins every connection
//! thread, and shuts the serving runtime down cleanly.
//!
//! One write per frame: every reply — single-line, the multi-line
//! `metrics`/`trace` ones whole, and the protocol-error refusal — leaves
//! with its LF in a single `write_all` ([`crate::protocol`]'s framing
//! helper), so the client wakes once per reply.
//!
//! The accept loop outlives failed accepts: an error such as `EMFILE`
//! under descriptor pressure backs off and retries, and only the stop
//! flag ends the loop.

use crate::error::ServerError;
use crate::fault::SocketFault;
use crate::protocol::{
    encode_deploy_ack, encode_error, encode_health, encode_lines, encode_list_reply,
    encode_response, encode_retire_ack, encode_update_ack, parse_command, write_frame, Command,
};
use crate::server::Server;
use crate::telemetry::ServerStats;
use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked I/O re-checks the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Longest accepted command line, LF excluded. The largest line any
/// test, example or benchmark workload sends today is 1 131 bytes (the
/// benchmark's `update_mix` delta: one edge added, one removed and one
/// 64-wide feature row; the adversarial replay trace peaks at 99). A
/// peer that exceeds the cap is answered `err protocol …` and its
/// connection closed — buffering on would let it grow the line buffer
/// without bound, and past the cap there is no line start left to
/// re-synchronise on.
const MAX_LINE_BYTES: usize = 1 << 20;

/// How long a refused connection is drained before it is dropped (see
/// [`close_after_discarding`]).
const LINGER: Duration = Duration::from_secs(1);

/// A running TCP front end over a [`Server`].
pub struct TcpServer {
    server: Arc<Server>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections against `server`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, and a failure to spawn the accept
    /// thread.
    pub fn bind(server: Arc<Server>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_handle = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("blockgnn-accept".into())
                .spawn(move || accept_loop(&listener, &server, &stop))?
        };
        Ok(Self { server, addr, stop, accept_handle: Some(accept_handle) })
    }

    /// The bound address (with the actual port when 0 was requested).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the front end to stop (idempotent; also triggered by the
    /// `shutdown` protocol command).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a stop was requested.
    #[must_use]
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Blocks until a stop is requested (by [`TcpServer::stop`] or a
    /// client's `shutdown` command), then joins the accept loop and
    /// every connection thread, shuts the serving runtime down, and
    /// returns the final telemetry.
    pub fn run_until_shutdown(mut self) -> ServerStats {
        while !self.stopping() {
            std::thread::sleep(POLL_INTERVAL);
        }
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        self.server.shutdown()
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop();
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, server: &Arc<Server>, stop: &Arc<AtomicBool>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let server = Arc::clone(server);
                let stop = Arc::clone(stop);
                // A thread that cannot spawn drops its closure, and the
                // stream in it: that one connection closes, the loop
                // serves on.
                let spawned =
                    std::thread::Builder::new().name("blockgnn-conn".into()).spawn(move || {
                        let _ = serve_connection(stream, &server, &stop);
                    });
                connections.extend(spawned.ok());
            }
            Err(e) => {
                // Idle: reap finished connection threads so a long-lived
                // daemon does not accumulate one dead handle per client
                // that ever connected, then nap until the next poll. Any
                // other error (`EMFILE`, `ENFILE`, an aborted handshake)
                // leaves the listener intact: back off for a poll
                // interval, so descriptors can free up, and accept again.
                reap_finished(&mut connections);
                std::thread::sleep(if e.kind() == ErrorKind::WouldBlock {
                    Duration::from_millis(2)
                } else {
                    POLL_INTERVAL
                });
            }
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
}

/// Joins (and drops) every connection thread that has already exited.
fn reap_finished(connections: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < connections.len() {
        if connections[i].is_finished() {
            let _ = connections.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Serves one connection until EOF, error, stop, or `shutdown`.
fn serve_connection(
    stream: TcpStream,
    server: &Arc<Server>,
    stop: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    // A finite read timeout lets idle connections notice a server stop.
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut partial = Vec::new();
    loop {
        let line = match read_line_stoppable(&mut reader, &mut partial, stop) {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                write_frame(&mut writer, &encode_error(&ServerError::Protocol(e.to_string())))?;
                return close_after_discarding(&mut reader, &writer, stop);
            }
            Err(e) => return Err(e),
        };
        // The socket-layer injection point: one deterministic draw per
        // command line. A Reset drops the connection before any reply
        // (what a peer sees as ECONNRESET / EOF — the client's retry
        // path must absorb it); a Stall delays the reply.
        match server.fault_injector().socket_fault() {
            SocketFault::None => {}
            SocketFault::Reset => return Ok(()),
            SocketFault::Stall(pause) => std::thread::sleep(pause),
        }
        let command = parse_command(line.trim()).map_err(ServerError::Protocol);
        let shutdown = matches!(command, Ok(Command::Shutdown));
        let reply = command.and_then(|command| answer(server, command));
        write_frame(&mut writer, &reply.unwrap_or_else(|e| encode_error(&e)))?;
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            return Ok(());
        }
    }
}

/// The reply to one command: every verb answers here, and every failure
/// comes back as the [`ServerError`] the caller encodes. `Shutdown` is
/// answered `ok bye`; stopping is the caller's part.
fn answer(server: &Server, command: Command) -> Result<String, ServerError> {
    // An `@tenant` qualifier resolves per command — the tenant may have
    // been deployed (or retired) since the last line on this very
    // connection; `None` addresses the default tenant.
    let handle = |tenant: Option<String>| match tenant {
        None => Ok(server.handle()),
        Some(name) => server.handle_for(&name),
    };
    Ok(match command {
        Command::Ping => "pong".to_string(),
        Command::Health => encode_health(&server.health()),
        Command::Stats(None) => format!("ok stats {}", server.stats().summary()),
        Command::Stats(Some(name)) => {
            format!("ok stats {}", server.tenant_stats(&name)?.summary())
        }
        Command::Shutdown => "ok bye".to_string(),
        Command::Infer(request, options, tenant) => {
            let handle = handle(tenant)?;
            encode_response(&handle.infer_with(request, options)?, handle.tenant_name())
        }
        // A rejected update answers with a typed error and the connection
        // (and the addressed graph) carries on untouched. The ack's counts
        // come from the exact epoch this delta published, so they stay
        // consistent with its version even under concurrent updates.
        Command::Update(delta, tenant) => {
            encode_update_ack(&handle(tenant)?.update_acked(&delta)?)
        }
        Command::Deploy(spec) => encode_deploy_ack(&server.deploy(&spec)?.info()),
        Command::Retire(name) => encode_retire_ack(&name, &server.retire(&name)?),
        Command::List => encode_list_reply(&server.tenants()),
        // The observability verbs are the protocol's only multi-line
        // replies, assembled as one string that `write_frame` sends with
        // its final LF, so each hits the socket in one write.
        Command::Metrics => {
            encode_lines("metrics", &server.metrics_text().lines().collect::<Vec<_>>())
        }
        Command::Trace(query) => encode_lines("trace", &server.trace_lines(query)),
    })
}

/// Closes a refused connection so that the refusal arrives: closing
/// with the peer's bytes still unread resets the connection, and a
/// reset can destroy the reply just written before the peer reads it.
/// So half-close, then discard what the peer still sends until it
/// closes too — or [`LINGER`] passes, after which it gets the reset.
fn close_after_discarding(
    reader: &mut BufReader<TcpStream>,
    writer: &TcpStream,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    writer.shutdown(Shutdown::Write)?;
    let deadline = Instant::now() + LINGER;
    while Instant::now() < deadline && !stop.load(Ordering::SeqCst) {
        match reader.fill_buf() {
            Ok([]) => break,
            Ok(available) => {
                let n = available.len();
                reader.consume(n);
            }
            Err(e) if is_poll_wakeup(&e) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Whether a read error is just the [`POLL_INTERVAL`] timeout (or a
/// signal) waking the loop to re-check the stop flag.
fn is_poll_wakeup(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted)
}

/// One iteration's outcome while assembling a line.
enum ReadStep {
    Eof,
    /// A newline was found; consume this many buffered bytes.
    Line(usize),
    /// No newline yet; consume this many buffered bytes and keep going.
    More(usize),
    /// Timeout/interrupt; re-check the stop flag and retry.
    Retry,
}

/// Reads one LF-terminated line, preserving partial input across read
/// timeouts (unlike `BufReader::read_line`, which discards it on
/// error) so the stop flag can be polled without losing bytes. `None`
/// on EOF or stop.
///
/// # Errors
///
/// [`ErrorKind::InvalidData`] once a line passes [`MAX_LINE_BYTES`]
/// (`partial` never holds more than the cap); other I/O errors as is.
fn read_line_stoppable(
    reader: &mut BufReader<TcpStream>,
    partial: &mut Vec<u8>,
    stop: &AtomicBool,
) -> std::io::Result<Option<String>> {
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let step = match reader.fill_buf() {
            Ok([]) => ReadStep::Eof, // any partial line dies with the peer
            Ok(available) => {
                let newline = available.iter().position(|&b| b == b'\n');
                let body = &available[..newline.unwrap_or(available.len())];
                if partial.len() + body.len() > MAX_LINE_BYTES {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        format!("line exceeds {MAX_LINE_BYTES} bytes"),
                    ));
                }
                partial.extend_from_slice(body);
                match newline {
                    Some(i) => ReadStep::Line(i + 1),
                    None => ReadStep::More(body.len()),
                }
            }
            Err(e) if is_poll_wakeup(&e) => ReadStep::Retry,
            Err(e) => return Err(e),
        };
        match step {
            ReadStep::Eof => return Ok(None),
            ReadStep::Line(n) => {
                reader.consume(n);
                let line = String::from_utf8_lossy(partial).into_owned();
                partial.clear();
                return Ok(Some(line));
            }
            ReadStep::More(n) => reader.consume(n),
            ReadStep::Retry => {}
        }
    }
}
