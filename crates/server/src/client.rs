//! TCP client for the serving front end: one blocking connection, its
//! transport deadlines, and the idempotent retry policy.
//!
//! One write per frame: a request line and its LF leave in a single
//! `write_all` ([`crate::protocol`]'s framing helper), so the server's
//! connection thread wakes once per request. Only the replay harness's
//! slow-loris path still writes a line in pieces.

use crate::error::ServerError;
use crate::fault::splitmix;
use crate::observe::TraceQuery;
use crate::protocol::{
    parse_deploy_ack, parse_error, parse_health, parse_lines_header, parse_list_reply,
    parse_response, parse_update_ack, write_frame, Command, HealthReport, RemoteResponse,
    UpdateAck,
};
use crate::queue::SubmitOptions;
use crate::tenant::{TenantInfo, TenantSpec};
use blockgnn_engine::{GraphDelta, InferRequest};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side transport deadlines. Every [`Client`] carries one: the
/// default bounds every phase (no more indefinite blocking on a hung
/// server); [`ClientTimeouts::none`] restores the old wait-forever
/// behavior for debuggers and very slow links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientTimeouts {
    /// TCP connect deadline.
    pub connect: Option<Duration>,
    /// Per-reply read deadline; expiry surfaces as a typed
    /// [`ServerError::Timeout`].
    pub read: Option<Duration>,
    /// Per-request write deadline.
    pub write: Option<Duration>,
}

impl Default for ClientTimeouts {
    /// 5 s to connect, 30 s per reply, 10 s per write.
    fn default() -> Self {
        Self {
            connect: Some(Duration::from_secs(5)),
            read: Some(Duration::from_secs(30)),
            write: Some(Duration::from_secs(10)),
        }
    }
}

impl ClientTimeouts {
    /// No deadlines anywhere (block indefinitely, pre-timeout behavior).
    #[must_use]
    pub fn none() -> Self {
        Self { connect: None, read: None, write: None }
    }

    /// One deadline applied to connect, read, and write alike.
    #[must_use]
    pub fn all(timeout: Duration) -> Self {
        Self { connect: Some(timeout), read: Some(timeout), write: Some(timeout) }
    }
}

/// Jittered-exponential-backoff retry policy for idempotent
/// re-submission. Inference is pure per graph version, so a request
/// that died to a crashed worker, a reset connection, or a timeout is
/// safe to send again — the answer bits are identical whichever attempt
/// lands (its trace id identifies re-submissions in the flight
/// recorder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included; 1 = no retry).
    pub attempts: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub base: Duration,
    /// Cap on the grown backoff.
    pub max: Duration,
    /// Seed of the deterministic jitter stream (each sleep lands in
    /// `[50%, 100%]` of the grown backoff).
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// 5 attempts, 2 ms doubling to 200 ms, seed `0x5EED`.
    fn default() -> Self {
        Self {
            attempts: 5,
            base: Duration::from_millis(2),
            max: Duration::from_millis(200),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// Whether an error is safe and useful to retry: transport failures
    /// and timeouts (reconnect first), crashed workers (respawned behind
    /// the reply), and overload sheds (backoff absorbs the burst).
    /// Deadline sheds are final — the deadline has passed — and engine /
    /// protocol / tenant errors are deterministic, so retrying cannot
    /// help.
    #[must_use]
    pub fn retryable(error: &ServerError) -> bool {
        matches!(
            error,
            ServerError::WorkerCrashed
                | ServerError::Timeout { .. }
                | ServerError::Io(_)
                | ServerError::Overloaded { .. }
        )
    }

    /// The jittered sleep before retry number `attempt` (0-based):
    /// `base × 2^attempt` capped at `max`, scaled into `[50%, 100%]` by
    /// the seeded jitter stream.
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let grown = self.base.saturating_mul(1u32 << attempt.min(16)).min(self.max);
        let jitter = splitmix(self.seed ^ u64::from(attempt)) % 512;
        grown / 2 + grown.mul_f64(jitter as f64 / 1024.0)
    }
}

/// Sends one request line as one frame ([`write_frame`]), or — with
/// `dribble = Some((chunks, pause))` — as `chunks` writes `pause` apart
/// and then the LF on its own.
fn send_line(
    writer: &mut impl Write,
    line: &str,
    dribble: Option<(usize, Duration)>,
) -> std::io::Result<()> {
    let Some((chunks, pause)) = dribble else { return write_frame(writer, line) };
    for chunk in line.as_bytes().chunks(line.len().div_ceil(chunks.max(1)).max(1)) {
        writer.write_all(chunk)?;
        writer.flush()?;
        std::thread::sleep(pause);
    }
    writer.write_all(b"\n")?;
    writer.flush()
}

/// A blocking client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The resolved peer, kept for reconnect-on-retry.
    addr: SocketAddr,
    timeouts: ClientTimeouts,
}

impl Client {
    /// Connects to a serving front end with the default
    /// [`ClientTimeouts`] (bounded connect/read/write — a hung server
    /// surfaces as a typed [`ServerError::Timeout`], never an indefinite
    /// block).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, ClientTimeouts::default())
    }

    /// Connects with explicit transport deadlines.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (including connect-deadline
    /// expiry).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        timeouts: ClientTimeouts,
    ) -> std::io::Result<Self> {
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            let connected = match timeouts.connect {
                Some(deadline) => TcpStream::connect_timeout(&candidate, deadline),
                None => TcpStream::connect(candidate),
            };
            match connected {
                Ok(stream) => return Self::wrap(stream, candidate, timeouts),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn wrap(
        stream: TcpStream,
        addr: SocketAddr,
        timeouts: ClientTimeouts,
    ) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeouts.read)?;
        stream.set_write_timeout(timeouts.write)?;
        let writer = stream.try_clone()?;
        Ok(Self { reader: BufReader::new(stream), writer, addr, timeouts })
    }

    /// The transport deadlines this client operates under.
    #[must_use]
    pub fn timeouts(&self) -> ClientTimeouts {
        self.timeouts
    }

    /// Drops the connection and dials the same peer again (the retry
    /// path's recovery from resets and timeouts, after which buffered
    /// half-replies are gone).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let stream = match self.timeouts.connect {
            Some(deadline) => TcpStream::connect_timeout(&self.addr, deadline),
            None => TcpStream::connect(self.addr),
        }?;
        *self = Self::wrap(stream, self.addr, self.timeouts)?;
        Ok(())
    }

    /// Maps an I/O failure to the typed error surface: deadline expiry
    /// (`WouldBlock`/`TimedOut`) becomes [`ServerError::Timeout`] with
    /// the deadline that expired, everything else stays
    /// [`ServerError::Io`].
    fn transport_error(e: &std::io::Error, waited: Option<Duration>) -> ServerError {
        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
            ServerError::Timeout { waited: waited.unwrap_or_default() }
        } else {
            ServerError::Io(e.to_string())
        }
    }

    /// Writes one request line and reads one reply line back, as it
    /// came. With `dribble = Some((chunks, pause))` the line goes out in
    /// `chunks` writes `pause` apart — the replay harness's slow-loris
    /// client.
    pub(crate) fn exchange(
        &mut self,
        line: &str,
        dribble: Option<(usize, Duration)>,
    ) -> Result<String, ServerError> {
        if let Err(e) = send_line(&mut self.writer, line, dribble) {
            return Err(Self::transport_error(&e, self.timeouts.write));
        }
        self.read_line()
    }

    fn read_line(&mut self) -> Result<String, ServerError> {
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err(ServerError::Io("server closed the connection".into())),
            Ok(_) => {
                reply.truncate(reply.trim_end().len());
                Ok(reply)
            }
            Err(e) => Err(Self::transport_error(&e, self.timeouts.read)),
        }
    }

    /// Sends `command`; an `err …` reply comes back as the
    /// [`ServerError`] it encodes, any other as its line.
    fn call(&mut self, command: &Command) -> Result<String, ServerError> {
        let reply = self.exchange(&command.to_string(), None)?;
        if reply.starts_with("err ") {
            return Err(parse_error(&reply)?);
        }
        Ok(reply)
    }

    /// Sends a command whose reply is multi-line (`ok <verb> lines=N`
    /// header + N body lines) and returns the body lines.
    fn call_lines(
        &mut self,
        command: &Command,
        verb: &str,
    ) -> Result<Vec<String>, ServerError> {
        let count = parse_lines_header(&self.call(command)?, verb)?;
        (0..count).map(|_| self.read_line()).collect()
    }

    /// Sends a command whose only good reply is the fixed line `want`.
    fn call_expecting(&mut self, command: &Command, want: &str) -> Result<(), ServerError> {
        let reply = self.call(command)?;
        if reply == want {
            Ok(())
        } else {
            Err(ServerError::Protocol(format!("expected {want}, got {reply:?}")))
        }
    }

    /// Sends one inference request to the default tenant and blocks for
    /// the answer.
    ///
    /// # Errors
    ///
    /// The server's typed rejection ([`ServerError::Overloaded`],
    /// [`ServerError::DeadlineExceeded`], …), a
    /// [`ServerError::RemoteEngine`] failure, or transport/protocol
    /// errors.
    pub fn infer(&mut self, request: &InferRequest) -> Result<RemoteResponse, ServerError> {
        self.infer_with(request, SubmitOptions::default())
    }

    /// Sends one inference request to the default tenant with explicit
    /// class/deadline.
    ///
    /// # Errors
    ///
    /// As [`Client::infer`].
    pub fn infer_with(
        &mut self,
        request: &InferRequest,
        options: SubmitOptions,
    ) -> Result<RemoteResponse, ServerError> {
        self.infer_tenant(request, options, None)
    }

    /// Sends one inference request with explicit options and tenant
    /// (`None` = the default tenant; `Some(name)` sends `infer@name`).
    ///
    /// # Errors
    ///
    /// As [`Client::infer`], plus [`ServerError::UnknownTenant`] when no
    /// such tenant is deployed.
    pub fn infer_tenant(
        &mut self,
        request: &InferRequest,
        options: SubmitOptions,
        tenant: Option<&str>,
    ) -> Result<RemoteResponse, ServerError> {
        let command = Command::Infer(request.clone(), options, tenant.map(str::to_string));
        parse_response(&self.call(&command)?)
    }

    /// Submits an inference with idempotent retry under `policy`:
    /// retryable failures ([`RetryPolicy::retryable`]) sleep the
    /// policy's jittered backoff and re-submit; transport failures and
    /// timeouts reconnect first (the old connection's state is suspect).
    /// Safe because inference is pure per graph version — every attempt
    /// computes the same bits.
    ///
    /// # Errors
    ///
    /// The final attempt's error once the budget is exhausted, or the
    /// first non-retryable error.
    pub fn infer_retry(
        &mut self,
        request: &InferRequest,
        options: SubmitOptions,
        tenant: Option<&str>,
        policy: &RetryPolicy,
    ) -> Result<RemoteResponse, ServerError> {
        let mut attempt = 0u32;
        loop {
            match self.infer_tenant(request, options, tenant) {
                Ok(response) => return Ok(response),
                Err(e)
                    if attempt + 1 < policy.attempts.max(1) && RetryPolicy::retryable(&e) =>
                {
                    std::thread::sleep(policy.backoff(attempt));
                    if matches!(e, ServerError::Io(_) | ServerError::Timeout { .. }) {
                        // Reconnect failures are themselves retryable —
                        // the server may be mid-respawn; keep burning
                        // attempts until the budget runs out.
                        while self.reconnect().is_err() {
                            attempt += 1;
                            if attempt + 1 >= policy.attempts.max(1) {
                                return Err(e);
                            }
                            std::thread::sleep(policy.backoff(attempt));
                        }
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fetches the serving pool's health report (`health` verb):
    /// worker liveness, crash/restart counters, and whether the circuit
    /// breaker currently has the pool degraded.
    ///
    /// # Errors
    ///
    /// Transport or protocol errors.
    pub fn health(&mut self) -> Result<HealthReport, ServerError> {
        parse_health(&self.call(&Command::Health)?)
    }

    /// Applies a graph delta to the default tenant, blocking for the ack
    /// with the newly published version. Feature values cross the wire
    /// as `f64` bit patterns, so the server applies exactly this delta.
    ///
    /// # Errors
    ///
    /// The server's typed rejection (a [`ServerError::RemoteEngine`]
    /// for invalid deltas / residency violations / frozen snapshots),
    /// or transport/protocol errors.
    pub fn update(&mut self, delta: &GraphDelta) -> Result<UpdateAck, ServerError> {
        self.update_tenant(delta, None)
    }

    /// Applies a graph delta to the addressed tenant (`None` = default).
    /// Tenants' graphs version independently — the ack echoes which
    /// tenant (and which of its versions) the delta published.
    ///
    /// # Errors
    ///
    /// As [`Client::update`], plus [`ServerError::UnknownTenant`] when
    /// no such tenant is deployed.
    pub fn update_tenant(
        &mut self,
        delta: &GraphDelta,
        tenant: Option<&str>,
    ) -> Result<UpdateAck, ServerError> {
        let command = Command::Update(delta.clone(), tenant.map(str::to_string));
        parse_update_ack(&self.call(&command)?)
    }

    /// Deploys a new tenant on the server; blocks for the ack describing
    /// what was published.
    ///
    /// # Errors
    ///
    /// The server's typed rejection ([`ServerError::TenantExists`],
    /// [`ServerError::TenantBudget`], a protocol error for a bad spec),
    /// or transport/protocol errors.
    pub fn deploy(&mut self, spec: &TenantSpec) -> Result<TenantInfo, ServerError> {
        parse_deploy_ack(&self.call(&Command::Deploy(spec.clone()))?)
    }

    /// Retires a deployed tenant; returns the server's send-off line
    /// (`ok retire tenant=… requests=… completed=… shed=…`).
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownTenant`] for unknown names, a protocol
    /// error for the irremovable default tenant, or transport errors.
    pub fn retire(&mut self, tenant: &str) -> Result<String, ServerError> {
        let reply = self.call(&Command::Retire(tenant.to_string()))?;
        if reply.starts_with("ok retire ") {
            Ok(reply)
        } else {
            Err(ServerError::Protocol(format!("expected ok retire reply, got {reply:?}")))
        }
    }

    /// Fetches the deployed-tenant roster.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ServerError::Protocol`] on a malformed
    /// reply.
    pub fn list(&mut self) -> Result<Vec<TenantInfo>, ServerError> {
        parse_list_reply(&self.call(&Command::List)?)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ServerError::Protocol`] on a non-`pong`
    /// reply.
    pub fn ping(&mut self) -> Result<(), ServerError> {
        self.call_expecting(&Command::Ping, "pong")
    }

    /// Fetches the server's aggregate one-line telemetry summary.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ServerError::Protocol`] on a malformed
    /// reply.
    pub fn stats(&mut self) -> Result<String, ServerError> {
        self.stats_tenant(None)
    }

    /// Fetches a telemetry summary — aggregate (`None`) or one tenant's
    /// private slice (`Some(name)` sends `stats@name`).
    ///
    /// # Errors
    ///
    /// As [`Client::stats`], plus [`ServerError::UnknownTenant`] when no
    /// such tenant is deployed.
    pub fn stats_tenant(&mut self, tenant: Option<&str>) -> Result<String, ServerError> {
        let reply = self.call(&Command::Stats(tenant.map(str::to_string)))?;
        reply.strip_prefix("ok stats ").map(str::to_string).ok_or_else(|| {
            ServerError::Protocol(format!("expected stats reply, got {reply:?}"))
        })
    }

    /// Fetches the Prometheus-style metrics exposition (one string,
    /// newline-separated, exactly as a scraper would see it).
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ServerError::Protocol`] on a malformed
    /// reply.
    pub fn metrics(&mut self) -> Result<String, ServerError> {
        Ok(self.call_lines(&Command::Metrics, "metrics")?.join("\n"))
    }

    /// Fetches the most recent `n` trace records (one
    /// [`crate::TraceRecord`] wire line each, newest first).
    ///
    /// # Errors
    ///
    /// As [`Client::metrics`].
    pub fn trace_last(&mut self, n: usize) -> Result<Vec<String>, ServerError> {
        self.call_lines(&Command::Trace(TraceQuery::Last(n)), "trace")
    }

    /// Looks one trace up by id (the `trace_id` an infer reply carried).
    /// `Ok(None)` when the flight recorder no longer holds it.
    ///
    /// # Errors
    ///
    /// As [`Client::metrics`].
    pub fn trace_id(&mut self, id: u64) -> Result<Option<String>, ServerError> {
        Ok(self.call_lines(&Command::Trace(TraceQuery::Id(id)), "trace")?.pop())
    }

    /// Fetches the retained slow/shed/failed trace exemplars.
    ///
    /// # Errors
    ///
    /// As [`Client::metrics`].
    pub fn trace_slow(&mut self) -> Result<Vec<String>, ServerError> {
        self.call_lines(&Command::Trace(TraceQuery::Slow), "trace")
    }

    /// Exports everything the flight recorder holds as one line of
    /// Chrome trace-event JSON (load in `chrome://tracing` / Perfetto).
    ///
    /// # Errors
    ///
    /// As [`Client::metrics`].
    pub fn trace_export(&mut self) -> Result<String, ServerError> {
        let mut lines = self.call_lines(&Command::Trace(TraceQuery::Export), "trace")?;
        lines
            .pop()
            .ok_or_else(|| ServerError::Protocol("trace export returned an empty reply".into()))
    }

    /// Asks the server to shut down cleanly.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ServerError::Protocol`] on an unexpected
    /// reply.
    pub fn shutdown(&mut self) -> Result<(), ServerError> {
        self.call_expecting(&Command::Shutdown, "ok bye")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::tests::{framed, CallLog};

    #[test]
    fn a_request_is_one_write_holding_its_lf() {
        let line = Command::Infer(
            InferRequest::sampled(vec![3, 1], 10, 5, 42),
            SubmitOptions::default(),
            Some("traffic".into()),
        )
        .to_string();
        let mut log = CallLog::new();
        send_line(&mut log, &line, None).unwrap();
        assert_eq!(log.calls, vec![framed(&line)]);
    }

    #[test]
    fn a_dribbled_request_sends_its_chunks_then_the_lf() {
        let mut log = CallLog::new();
        send_line(&mut log, "infer full 0", Some((3, Duration::ZERO))).unwrap();
        let calls: Vec<&[u8]> = log.calls.iter().map(Vec::as_slice).collect();
        assert_eq!(calls, [&b"infe"[..], b"r fu", b"ll 0", b"\n"]);
    }
}
