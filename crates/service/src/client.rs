//! A blocking JSON-lines client, used by `qcoralctl`, the benches and
//! the integration tests.
//!
//! # Retries
//!
//! [`Client::connect_with`] takes a [`RetryPolicy`]: connect failures
//! and *transient* transport failures mid-call (connection reset, broken
//! pipe, a server that vanished between frames) are retried with capped
//! exponential backoff and seeded jitter. Resending a request is safe
//! here in a way it is not for most services: analyses are
//! deterministic, so executing the same request twice returns
//! bit-identical answers and mutates nothing but caches — a retry can
//! cost duplicate compute (usually not even that, thanks to the factor
//! store), never divergent state.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use qcoral::Options;
use qcoral_mc::UsageProfile;

use crate::protocol::{
    AnalysisResponse, MetricsReport, NamedDist, Op, Outcome, Request, Response, ServerStatus,
};
use crate::wire::{decode_response, encode_request, WireError};

/// Client-side error.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server sent a frame this client cannot decode.
    Wire(WireError),
    /// The server answered with [`Outcome::Error`].
    Remote(String),
    /// The server answered with an outcome the call does not expect
    /// (e.g. a status payload for an analysis request).
    UnexpectedOutcome,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Remote(m) => write!(f, "server error: {m}"),
            ClientError::UnexpectedOutcome => write!(f, "unexpected outcome kind"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Retry behavior for connects and transient mid-call transport
/// failures (see the module docs for why resending is safe).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 ⇒ fail fast, the
    /// [`Client::connect`] default).
    pub retries: u32,
    /// Backoff before retry `k` is `min(base_delay · 2ᵏ, max_delay)`,
    /// scaled by jitter.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed for the jitter factor (each delay is scaled into
    /// [0.5, 1.0) so synchronized clients fan out). Deterministic per
    /// (seed, attempt), so tests can predict sleep bounds.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries: every failure surfaces immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            retries: 0,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            seed: 0,
        }
    }

    /// `retries` attempts with the default 50 ms base / 2 s cap.
    pub fn with_retries(retries: u32) -> RetryPolicy {
        RetryPolicy {
            retries,
            ..RetryPolicy::none()
        }
    }

    /// The backoff before retry number `attempt` (0-based).
    fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.max_delay);
        // Seeded jitter in [0.5, 1.0): splitmix64 of (seed, attempt).
        let mut z = self
            .seed
            .wrapping_add(u64::from(attempt) + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + 0.5 * unit)
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

/// Failure kinds worth retrying: the connection died or never came up,
/// with no evidence the server *rejected* anything. Anything else
/// (protocol errors, remote errors) is deterministic and surfaces
/// immediately.
fn is_transient(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::*;
    matches!(
        e.kind(),
        ConnectionRefused
            | ConnectionReset
            | ConnectionAborted
            | BrokenPipe
            | UnexpectedEof
            | NotConnected
            | TimedOut
            | WouldBlock
    )
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A connected client. One in-flight request at a time ([`Client::call`]
/// blocks until the matching response arrives).
pub struct Client {
    addrs: Vec<SocketAddr>,
    conn: Option<Conn>,
    next_id: u64,
    policy: RetryPolicy,
}

impl Client {
    /// Connects to a running `qcoral-service`, failing fast (no
    /// retries).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        Client::connect_with(addr, RetryPolicy::none())
    }

    /// Connects with a retry policy covering both this connect and
    /// every subsequent [`Client::call`]'s transient failures.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, policy: RetryPolicy) -> std::io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let mut client = Client {
            addrs,
            conn: None,
            next_id: 1,
            policy,
        };
        let mut attempt = 0u32;
        loop {
            match client.ensure_connected() {
                Ok(_) => return Ok(client),
                Err(e) if attempt < policy.retries && is_transient(&e) => {
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn ensure_connected(&mut self) -> std::io::Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addrs.as_slice())?;
            let writer = stream.try_clone()?;
            self.conn = Some(Conn {
                reader: BufReader::new(stream),
                writer,
            });
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Sends one request and blocks for its response (responses with
    /// other ids — e.g. late answers to abandoned calls — are skipped).
    /// Transient transport failures reconnect and resend per the retry
    /// policy; the request keeps its id across attempts.
    pub fn call(&mut self, op: Op) -> Result<Response, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_request(&Request { id, op });
        let mut attempt = 0u32;
        loop {
            let result = match self.ensure_connected() {
                Ok(conn) => send_and_receive(conn, id, &frame),
                Err(e) => Err(ClientError::Io(e)),
            };
            match result {
                Err(ClientError::Io(e)) if attempt < self.policy.retries && is_transient(&e) => {
                    // The socket's framing state is unknown after an I/O
                    // failure; drop it and reconnect fresh.
                    self.conn = None;
                    std::thread::sleep(self.policy.delay(attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Quantifies a raw constraint system (`var …; pc …;`).
    pub fn analyze_system(
        &mut self,
        source: &str,
        options: Options,
        profile: Option<UsageProfile>,
    ) -> Result<AnalysisResponse, ClientError> {
        let response = self.call(Op::System {
            source: source.to_string(),
            options,
            profile,
        })?;
        expect_report(response.outcome)
    }

    /// Quantifies a MiniJ program end to end, optionally under a
    /// usage profile of named marginals (`None` ⇒ uniform).
    pub fn analyze_program(
        &mut self,
        source: &str,
        options: Options,
        max_depth: Option<u64>,
        profile: Option<Vec<NamedDist>>,
    ) -> Result<AnalysisResponse, ClientError> {
        let response = self.call(Op::Program {
            source: source.to_string(),
            options,
            max_depth,
            profile,
        })?;
        expect_report(response.outcome)
    }

    /// Fetches the server status: configuration, store and scheduler
    /// counters, the store's startup recovery and fault counters.
    pub fn status(&mut self) -> Result<ServerStatus, ClientError> {
        match self.call(Op::Status)?.outcome {
            Outcome::Status(s) => Ok(s),
            Outcome::Error { message } => Err(ClientError::Remote(message)),
            _ => Err(ClientError::UnexpectedOutcome),
        }
    }

    /// Scrapes the server's metric families (Prometheus-style text
    /// exposition).
    pub fn metrics(&mut self) -> Result<MetricsReport, ClientError> {
        match self.call(Op::Metrics)?.outcome {
            Outcome::Metrics(m) => Ok(m),
            Outcome::Error { message } => Err(ClientError::Remote(message)),
            _ => Err(ClientError::UnexpectedOutcome),
        }
    }
}

fn send_and_receive(conn: &mut Conn, id: u64, frame: &str) -> Result<Response, ClientError> {
    conn.writer.write_all(frame.as_bytes())?;
    conn.writer.flush()?;
    let mut line = String::new();
    loop {
        line.clear();
        let n = conn.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let response = decode_response(&line).map_err(ClientError::Wire)?;
        if response.id == id {
            return Ok(response);
        }
        // Request ids start at 1, so id 0 is the server telling the
        // *connection* something is wrong (connection-limit refusal,
        // a frame it could not attribute). Surface it — skipping
        // would lose the message and wait for an answer that may
        // never come.
        if response.id == 0 {
            if let Outcome::Error { message } = response.outcome {
                return Err(ClientError::Remote(message));
            }
        }
    }
}

fn expect_report(outcome: Outcome) -> Result<AnalysisResponse, ClientError> {
    match outcome {
        Outcome::Report(r) => Ok(r),
        Outcome::Error { message } => Err(ClientError::Remote(message)),
        _ => Err(ClientError::UnexpectedOutcome),
    }
}
