//! Typed serving errors: every way a request can be rejected or fail,
//! on either side of the wire.

use blockgnn_engine::EngineError;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Errors surfaced by the serving runtime and its TCP client.
///
/// Overload and deadline rejections are *typed* so callers can tell
/// load-shedding apart from genuine failures (shed requests are safe to
/// retry elsewhere; engine errors are not).
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The admission queue was full; the request was shed immediately
    /// instead of blocking the caller.
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
        /// Configured maximum depth.
        max_depth: usize,
    },
    /// The request's deadline passed while it waited in the queue; it
    /// was shed without executing.
    DeadlineExceeded {
        /// How long the request had waited when it was shed.
        waited: Duration,
    },
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The serving worker panicked mid-batch; every in-flight request of
    /// that batch gets this typed reply instead of a dropped connection.
    /// Inference is pure per graph version, so the request is safe to
    /// re-submit — the supervisor respawns the worker behind it.
    WorkerCrashed,
    /// A client-side timeout: the configured connect/read/write deadline
    /// passed with no reply. The request may or may not have executed;
    /// re-submitting is safe because inference is pure per graph
    /// version.
    Timeout {
        /// The deadline that expired.
        waited: Duration,
    },
    /// The serving worker disappeared before answering (only possible
    /// during an unclean teardown).
    Canceled,
    /// The addressed tenant is not deployed (never was, or was retired;
    /// requests already queued for a tenant when it is retired come back
    /// with this too).
    UnknownTenant {
        /// The tenant name the request addressed.
        name: String,
    },
    /// A tenant with this name is already deployed; retire it first (or
    /// pick another name) to swap in a replacement.
    TenantExists {
        /// The name the deploy collided on.
        name: String,
    },
    /// Deploying the tenant would overflow the device budget: the sum of
    /// deployed tenants' packed weight spectra + resident features
    /// (§IV-B/§IV-C accounting) must fit
    /// [`crate::ServerConfig::device_budget_bytes`].
    TenantBudget {
        /// Aggregate resident bytes the deploy would have needed.
        needed: usize,
        /// The configured device budget.
        budget: usize,
    },
    /// The engine rejected the request (bad node ids, empty sampled
    /// request, …).
    Engine(EngineError),
    /// A client-side view of a server-side engine failure (the
    /// structured [`EngineError`] does not cross the wire).
    RemoteEngine(String),
    /// A malformed protocol line (client or server side).
    Protocol(String),
    /// An I/O failure — the transport, or the OS refusing a worker
    /// thread — with the rendered error.
    Io(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Overloaded { depth, max_depth } => {
                write!(f, "request shed: queue full ({depth}/{max_depth})")
            }
            ServerError::DeadlineExceeded { waited } => {
                write!(f, "request shed: deadline passed after waiting {waited:?}")
            }
            ServerError::ShuttingDown => write!(f, "server is shutting down"),
            ServerError::WorkerCrashed => {
                write!(f, "serving worker crashed mid-batch; safe to re-submit")
            }
            ServerError::Timeout { waited } => {
                write!(f, "request timed out after {waited:?}")
            }
            ServerError::Canceled => write!(f, "serving worker dropped the request"),
            ServerError::UnknownTenant { name } => {
                write!(f, "no tenant named {name:?} is deployed")
            }
            ServerError::TenantExists { name } => {
                write!(f, "a tenant named {name:?} is already deployed")
            }
            ServerError::TenantBudget { needed, budget } => {
                write!(
                    f,
                    "deploy rejected: aggregate residency {needed} B exceeds the \
                     device budget {budget} B"
                )
            }
            ServerError::Engine(e) => write!(f, "engine error: {e}"),
            ServerError::RemoteEngine(m) => write!(f, "remote engine error: {m}"),
            ServerError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServerError::Io(m) => write!(f, "I/O error: {m}"),
        }
    }
}

impl Error for ServerError {}

impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> Self {
        ServerError::Engine(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let shed = ServerError::Overloaded { depth: 8, max_depth: 8 };
        assert!(shed.to_string().contains("8/8"));
        let late = ServerError::DeadlineExceeded { waited: Duration::from_millis(5) };
        assert!(late.to_string().contains("deadline"));
        let engine: ServerError = EngineError::EmptyRequest.into();
        assert!(engine.to_string().contains("engine error"));
    }
}
