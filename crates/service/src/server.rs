//! The TCP server: accept loop, per-connection readers, request
//! execution on the shared worker pool.
//!
//! Every connection gets a reader thread that decodes JSON-lines frames
//! and submits jobs to the [`Scheduler`]. Workers execute requests
//! against analyzers wired to the server's shared [`PavingCache`] and
//! persistent [`FactorStore`] — so every recurring factor across all
//! clients, connections and (via the snapshot) restarts is answered from
//! the cross-run cache, bit-identically to a fresh computation.
//!
//! [`Op::Status`] and [`Op::Metrics`] are answered inline on the reader
//! thread: probes must work *especially* when the queue is full.

use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qcoral::{Analyzer, Deadline, Estimate, FactorStore, Report, Stats, Trace, DEFAULT_STORE_CAP};
use qcoral_constraints::parse::parse_system;
use qcoral_failpoints::failpoint;
use qcoral_icp::{domain_box, PavingCache};
use qcoral_mc::UsageProfile;
use qcoral_obs::{log, Counter, Histogram, Registry};
use qcoral_repro::pipeline::{analyze_program_with_profile, PipelineError};
use qcoral_symexec::SymConfig;

use crate::protocol::{
    AnalysisResponse, FailpointStatus, MetricsReport, Op, Outcome, Response, ServerStatus,
    PROTOCOL_VERSION,
};
use crate::scheduler::Scheduler;
use crate::store::PersistentStore;
use crate::wire::{decode_request, encode_response, read_frame, salvage_id, FrameRead};

/// How often the persist timer writes a dirty factor-store snapshot.
const SNAPSHOT_INTERVAL: Duration = Duration::from_secs(2);

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::addr`]).
    pub addr: String,
    /// Worker threads. Defaults to `min(4, available cores)`.
    pub workers: usize,
    /// Admission-queue capacity; beyond it requests are rejected with an
    /// "overloaded" error.
    pub queue_cap: usize,
    /// Micro-batch size limit: the dispatcher hands at most this many
    /// admitted jobs to the workers at a time.
    pub max_batch: usize,
    /// Factor-store entry capacity (LRU eviction beyond it).
    pub store_cap: usize,
    /// Snapshot path for the cross-run factor store; `None` disables
    /// persistence.
    pub snapshot: Option<PathBuf>,
    /// Per-request sample-budget ceiling: requests asking for more are
    /// rejected with an error instead of pinning a worker indefinitely.
    pub max_samples: u64,
    /// Per-request symbolic-execution depth ceiling (same rationale).
    pub max_depth_cap: u64,
    /// Per-request path-condition ceiling: bounds how many factors (and
    /// thus pavings, each up to `options.paver.max_boxes` boxes) one
    /// frame can demand. Also caps symbolic-execution path exploration.
    /// Operators facing untrusted clients should lower this together
    /// with the paver budget — worst-case request cost scales with their
    /// product.
    pub max_pcs: usize,
    /// Concurrent-connection ceiling: beyond it new connections get an
    /// error line and are closed (each connection owns a reader thread).
    pub max_connections: usize,
    /// Idle-connection timeout: a connection with no traffic for this
    /// long is closed, so silent sockets cannot pin reader threads.
    pub idle_timeout: Duration,
    /// Per-write timeout for responses. Workers write answers on the
    /// request's connection; a client that stops draining its socket
    /// would otherwise block a worker forever once the TCP send buffer
    /// fills — and, through the scheduler's batch barrier, stall the
    /// whole pool. A write that exceeds this timeout marks the
    /// connection dead (it is shut down and the response dropped).
    pub write_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: cores.min(4),
            queue_cap: 256,
            max_batch: 8,
            store_cap: DEFAULT_STORE_CAP,
            snapshot: None,
            max_samples: 10_000_000,
            max_depth_cap: 1_000,
            // Matches SymConfig::default().max_paths, so service answers
            // for default-configured programs stay identical to direct
            // pipeline calls.
            max_pcs: 100_000,
            max_connections: 1_024,
            idle_timeout: Duration::from_secs(300),
            write_timeout: Duration::from_secs(10),
        }
    }
}

struct ServerShared {
    store: Arc<PersistentStore>,
    paving_cache: Arc<PavingCache>,
    scheduler: Scheduler,
    cfg: ServiceConfig,
    connections: std::sync::atomic::AtomicUsize,
    /// Per-instance metric registry: the scheduler's and factor store's
    /// own counters are registered here, next to the server's request and
    /// analysis families, so multi-server processes stay exact.
    /// `Op::Metrics` renders it.
    registry: Registry,
    requests: RequestMetrics,
}

/// Reads one count off an analysis's [`Stats`].
type Count = fn(&Stats) -> u64;

/// The analysis families: each sums one count over the reports a server
/// answered.
const ANALYSIS_TOTALS: [(&str, &str, Count); 15] = [
    (
        "qcoral_analyses_total",
        "Completed analyses (one-shot and iterative).",
        |_| 1,
    ),
    (
        "qcoral_samples_drawn_total",
        "Monte Carlo sampling budget charged across all analyses.",
        |s| s.samples_drawn,
    ),
    (
        "qcoral_pavings_total",
        "ICP paving requests (paving-cache hits included).",
        |s| s.pavings,
    ),
    (
        "qcoral_paving_cache_hits_total",
        "Paving requests answered from the paving cache.",
        |s| s.paving_cache_hits,
    ),
    (
        "qcoral_paving_cache_misses_total",
        "Paving requests that ran branch-and-prune.",
        |s| s.paving_cache_misses,
    ),
    (
        "qcoral_tape_cache_hits_total",
        "Factors that reused a conjunction compiled earlier in the same analysis.",
        |s| s.tape_cache_hits,
    ),
    (
        "qcoral_tape_cache_misses_total",
        "Conjunctions compiled, at most once per analysis.",
        |s| s.tape_cache_misses,
    ),
    (
        "qcoral_partition_cache_hits_total",
        "Factor estimates answered from the in-run partition cache.",
        |s| s.cache_hits,
    ),
    (
        "qcoral_partition_cache_misses_total",
        "Factor estimates the in-run partition cache could not answer.",
        |s| s.cache_misses,
    ),
    (
        "qcoral_inner_boxes_total",
        "ICP inner boxes across all pavings.",
        |s| s.inner_boxes,
    ),
    (
        "qcoral_boundary_boxes_total",
        "ICP boundary boxes across all pavings.",
        |s| s.boundary_boxes,
    ),
    (
        "qcoral_rounds_total",
        "Sampling rounds executed by iterative analyses.",
        |s| s.rounds,
    ),
    (
        "qcoral_refine_samples_total",
        "Samples drawn by refinement rounds after the first.",
        |s| s.refine_samples,
    ),
    (
        "qcoral_is_factors_total",
        "Factors quantified by the adaptive importance-sampling engine.",
        |s| s.is_factors,
    ),
    (
        "qcoral_is_fallbacks_total",
        "IS factors that fell back to stratified after a zero-hit proposal round.",
        |s| s.is_fallbacks,
    ),
];

/// A server's request timings and the totals of the analyses it
/// answered, recorded by the worker that ran each request.
struct RequestMetrics {
    duration_us: Arc<Histogram>,
    totals: Vec<(Arc<Counter>, Count)>,
    analysis_duration_us: Arc<Histogram>,
}

impl RequestMetrics {
    /// Mints the families in `registry`.
    fn new(registry: &Registry) -> RequestMetrics {
        RequestMetrics {
            duration_us: registry.histogram(
                "qcoral_request_duration_us",
                "End-to-end request execution time on a worker (microseconds).",
            ),
            totals: ANALYSIS_TOTALS
                .iter()
                .map(|&(name, help, count)| (registry.counter(name, help), count))
                .collect(),
            analysis_duration_us: registry.histogram(
                "qcoral_analysis_duration_us",
                "Wall-clock time per analysis, microseconds.",
            ),
        }
    }

    /// Records one executed request, and its analysis if it answered
    /// with a report.
    fn record(&self, elapsed: Duration, outcome: &Outcome) {
        self.duration_us.record(elapsed.as_micros() as u64);
        if let Outcome::Report(AnalysisResponse { report, .. }) = outcome {
            for (counter, count) in &self.totals {
                counter.add(count(&report.stats));
            }
            self.analysis_duration_us
                .record(report.wall.as_micros() as u64);
        }
    }
}

/// Decrements the live-connection count when a reader thread exits,
/// however it exits.
struct ConnectionGuard<'a>(&'a ServerShared);

impl Drop for ConnectionGuard<'_> {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::Release);
    }
}

/// A running server. Obtain with [`Server::start`]; stop with
/// [`Server::shutdown`] (tests) or block forever with [`Server::wait`]
/// (the `qcoral-serviced` binary).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Dropping it wakes the persist timer, which then exits.
    persist_stop: Option<mpsc::Sender<()>>,
    persist_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, warm-loads the snapshot (if any), starts the worker pool
    /// and the accept loop, and returns immediately.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let store = Arc::new(PersistentStore::open(cfg.snapshot.clone(), cfg.store_cap));

        let scheduler = Scheduler::start(cfg.workers, cfg.queue_cap, cfg.max_batch);

        // Per-instance registry: the scheduler and factor store own their
        // counters; the server registers those handles here, next to the
        // request and analysis families it mints.
        let registry = Registry::new();
        let requests = RequestMetrics::new(&registry);
        scheduler.register_metrics(&registry);
        store.factor_store().register_metrics(&registry);
        store.register_metrics(&registry);

        let shared = Arc::new(ServerShared {
            store,
            paving_cache: Arc::new(PavingCache::new()),
            scheduler,
            cfg,
            connections: std::sync::atomic::AtomicUsize::new(0),
            registry,
            requests,
        });
        let stop = Arc::new(AtomicBool::new(false));

        // Snapshot compaction, off the request path: every factor insert
        // is already durable in the write-ahead log, so the snapshot only
        // bounds the log (and the replay work of the next start). The
        // timer saves a dirty store every `SNAPSHOT_INTERVAL`; graceful
        // shutdown saves the final state. Dropping the sender (shutdown,
        // or the server itself) ends the wait at once.
        let (persist_stop, stopped) = mpsc::channel::<()>();
        let persist_thread = shared.cfg.snapshot.is_some().then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("qcoral-persist".to_string())
                .spawn(move || {
                    while let Err(RecvTimeoutError::Timeout) =
                        stopped.recv_timeout(SNAPSHOT_INTERVAL)
                    {
                        if let Err(e) = shared.store.save_if_dirty() {
                            log::warn("periodic_snapshot_save_failed", &[("error", e.to_string())]);
                        }
                    }
                })
                .expect("spawn persist timer")
        });

        let accept_thread = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("qcoral-accept".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        match conn {
                            Ok(mut stream) => {
                                // Connection ceiling: each connection owns
                                // a reader thread, so refuse (with an
                                // error line) rather than spawn without
                                // bound.
                                let live = shared.connections.fetch_add(1, Ordering::AcqRel);
                                if live >= shared.cfg.max_connections {
                                    shared.connections.fetch_sub(1, Ordering::Release);
                                    let refusal = encode_response(&Response {
                                        id: 0,
                                        outcome: Outcome::Error {
                                            message: format!(
                                                "server at its connection limit of {}",
                                                shared.cfg.max_connections
                                            ),
                                        },
                                    });
                                    let _ = stream.write_all(refusal.as_bytes());
                                    continue;
                                }
                                let conn_shared = Arc::clone(&shared);
                                // Reader threads exit on client EOF or the
                                // idle timeout; they are not joined on
                                // shutdown (blocking reads have no
                                // portable cancellation), which only
                                // delays process exit if a client holds a
                                // connection open.
                                let spawned = std::thread::Builder::new()
                                    .name("qcoral-conn".to_string())
                                    .spawn(move || {
                                        let _guard = ConnectionGuard(&conn_shared);
                                        serve_connection(&conn_shared, stream)
                                    });
                                if spawned.is_err() {
                                    // The guard never ran.
                                    shared.connections.fetch_sub(1, Ordering::Release);
                                }
                            }
                            Err(e) => {
                                if !stop.load(Ordering::Acquire) {
                                    log::warn("accept_failed", &[("error", e.to_string())]);
                                }
                            }
                        }
                    }
                })
                .expect("spawn accept loop")
        };

        Ok(Server {
            addr,
            shared,
            stop,
            accept_thread: Some(accept_thread),
            persist_stop: Some(persist_stop),
            persist_thread,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's persistent factor store.
    pub fn factor_store(&self) -> &Arc<FactorStore> {
        self.shared.store.factor_store()
    }

    /// What startup recovery found on disk (see
    /// [`crate::store::RecoveryReport`]); the daemon logs this at boot.
    pub fn recovery_report(&self) -> &crate::store::RecoveryReport {
        self.shared.store.recovery_report()
    }

    /// The server's metric families as Prometheus-style text exposition:
    /// scheduler, factor store, request timings and the totals of the
    /// analyses this server answered. Same bytes [`Op::Metrics`] answers
    /// with; the daemon logs a digest of this periodically.
    pub fn metrics_text(&self) -> String {
        self.shared.registry.render()
    }

    /// Blocks this thread for the lifetime of the process (the server
    /// binary's main thread has nothing else to do).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Stops accepting, drains admitted requests, persists a final
    /// snapshot, and joins the pool.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Take the scheduler down (drains admitted jobs), then write the
        // final snapshot.
        self.shared.scheduler.shutdown();
        drop(self.persist_stop.take());
        if let Some(t) = self.persist_thread.take() {
            let _ = t.join();
        }
        if let Err(e) = self.shared.store.save_if_dirty() {
            log::error("final_snapshot_save_failed", &[("error", e.to_string())]);
        }
    }
}

fn serve_connection(shared: &Arc<ServerShared>, stream: TcpStream) {
    // Idle sockets must not pin reader threads forever; a timed-out read
    // errors below and the connection closes. The write timeout bounds
    // how long a worker can block on a client that stops reading (both
    // timeouts are socket options, shared with the clone below).
    let _ = stream.set_read_timeout(Some(shared.cfg.idle_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(e) => {
            log::warn("connection_setup_failed", &[("error", e.to_string())]);
            return;
        }
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        // Bounded read: reject a frame that exceeds the cap without
        // buffering it whole.
        match read_frame(&mut reader, &mut line) {
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Frame(_)) => {}
            // The line was consumed whole, so the stream is still
            // framed: answer with an error and keep the connection.
            Ok(FrameRead::NotUtf8) => {
                write_response(
                    &writer,
                    &Response {
                        id: 0,
                        outcome: Outcome::Error {
                            message: "frame is not valid UTF-8".to_string(),
                        },
                    },
                );
                continue;
            }
            // Oversized frame (stream no longer framed) or transport
            // error: drop the connection.
            Err(_) => return,
        }
        if line.trim().is_empty() {
            continue; // blank keep-alive lines are ignored
        }
        let request = match decode_request(&line) {
            Ok(r) => r,
            Err(e) => {
                write_response(
                    &writer,
                    &Response {
                        id: salvage_id(&line),
                        outcome: Outcome::Error {
                            message: e.to_string(),
                        },
                    },
                );
                continue;
            }
        };
        // Probes are answered inline: they must work *especially* when
        // the queue is full.
        let probe = match request.op {
            Op::Status => Some(Outcome::Status(status(shared))),
            Op::Metrics => Some(Outcome::Metrics(metrics_report(shared))),
            _ => None,
        };
        if let Some(outcome) = probe {
            write_response(
                &writer,
                &Response {
                    id: request.id,
                    outcome,
                },
            );
            continue;
        }
        // The deadline is anchored at arrival, not at job start: queue
        // wait counts against the budget, and a job whose deadline
        // expires while still queued is shed by the dispatcher —
        // answered below with a flagged partial report instead of
        // pinning a worker on already-stale work.
        let deadline_ms = match &request.op {
            Op::System { options, .. } | Op::Program { options, .. } => options.deadline_ms,
            _ => None,
        };
        let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        // Tracing opt-in: the trace is created here at decode time so the
        // queue wait (arrival → job start) lands on it as a span — queue
        // time is part of what the client experiences, and Status's
        // lifetime histograms can't attribute it to one request.
        let trace = match &request.op {
            Op::System { options, .. } | Op::Program { options, .. } if options.trace => {
                Some(Trace::new())
            }
            _ => None,
        };
        let trace_t0 = qcoral_obs::trace::span_start(&trace);
        let job_shared = Arc::clone(shared);
        let job_writer = Arc::clone(&writer);
        let id = request.id;
        let on_shed = deadline.map(|_| -> crate::scheduler::Job {
            let shed_writer = Arc::clone(&writer);
            Box::new(move || {
                write_response(
                    &shed_writer,
                    &Response {
                        id,
                        outcome: deadline_exceeded_report(),
                    },
                );
            })
        });
        let submitted = shared.scheduler.submit_with(
            Box::new(move || {
                if let Some(t) = &trace {
                    t.record("queue_wait", "service", trace_t0, Vec::new());
                }
                let started = Instant::now();
                let outcome = execute(&job_shared, request.op, deadline, trace);
                job_shared.requests.record(started.elapsed(), &outcome);
                write_response(&job_writer, &Response { id, outcome });
            }),
            deadline,
            on_shed,
        );
        if submitted.is_err() {
            write_response(
                &writer,
                &Response {
                    id,
                    outcome: Outcome::Error {
                        message: format!(
                            "server overloaded: admission queue of {} is full",
                            shared.cfg.queue_cap
                        ),
                    },
                },
            );
        }
    }
}

fn write_response(writer: &Arc<Mutex<TcpStream>>, response: &Response) {
    let frame = encode_response(response);
    let mut w = writer.lock().expect("writer lock");
    if failpoint!("wire.write") {
        // Injected transport failure: drop the response and sever the
        // connection, as a mid-write network fault would. The client's
        // retry policy is what recovers from this.
        let _ = w.shutdown(Shutdown::Both);
        return;
    }
    if w.write_all(frame.as_bytes())
        .and_then(|()| w.flush())
        .is_err()
    {
        // A failed (or timed-out — see ServiceConfig::write_timeout)
        // write means the client is gone or not reading; a partial write
        // also desyncs the frame stream. Shut the socket down so the
        // reader thread exits and later writes on this connection fail
        // immediately instead of each blocking a worker for the timeout.
        let _ = w.shutdown(Shutdown::Both);
    }
}

fn status(shared: &ServerShared) -> ServerStatus {
    let store = shared.store.factor_store();
    let (hits, misses) = store.stats();
    let m = shared.scheduler.metrics();
    let recovery = shared.store.recovery_report().clone();
    ServerStatus {
        protocol_version: PROTOCOL_VERSION,
        workers: shared.cfg.workers as u64,
        queue_cap: shared.cfg.queue_cap as u64,
        max_batch: shared.cfg.max_batch as u64,
        store_entries: store.len() as u64,
        store_capacity: store.capacity() as u64,
        store_hits: hits,
        store_misses: misses,
        requests_served: m.served,
        requests_rejected: m.rejected,
        requests_shed: m.shed,
        jobs_panicked: m.panicked,
        batches_dispatched: m.batches,
        queue_depth: shared.scheduler.queue_depth(),
        inflight: shared.scheduler.inflight(),
        backend: qcoral::active_backend().to_string(),
        factor_store_recovered: recovery.recovered(),
        recovery,
        wal_append_failures: shared.store.wal_append_failures(),
        failpoints: qcoral_failpoints::stats()
            .into_iter()
            .map(|s| FailpointStatus {
                name: s.name,
                evaluations: s.evaluations,
                fired: s.fired,
            })
            .collect(),
    }
}

fn metrics_report(shared: &ServerShared) -> MetricsReport {
    MetricsReport {
        protocol_version: PROTOCOL_VERSION,
        text: shared.registry.render(),
    }
}

/// The graceful-degradation answer for a request whose deadline passed
/// while it was still queued: a well-formed, explicitly *partial* report
/// (zero estimate, `deadline_exceeded` flagged) rather than an error —
/// the same shape a worker returns when the deadline expires mid-
/// analysis, just with zero progress.
fn deadline_exceeded_report() -> Outcome {
    Outcome::Report(AnalysisResponse {
        report: Report {
            estimate: Estimate::ZERO,
            per_pc: Vec::new(),
            stats: Stats {
                deadline_exceeded: true,
                ..Stats::default()
            },
            wall: Duration::ZERO,
            trace: None,
        },
        bound_mass: None,
        confidence: None,
        paths: None,
        cut_paths: None,
    })
}

/// Executes one analysis request. Panics (e.g. analyzer input asserts
/// not caught by validation) become error outcomes; the worker survives.
fn execute(
    shared: &ServerShared,
    op: Op,
    deadline: Option<Instant>,
    trace: Option<Arc<Trace>>,
) -> Outcome {
    let run = AssertUnwindSafe(|| execute_inner(shared, op, deadline, trace));
    match catch_unwind(run) {
        Ok(outcome) => outcome,
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic");
            Outcome::Error {
                message: format!("internal error: {msg}"),
            }
        }
    }
}

/// Ceiling on `options.paver.max_boxes`: 32× the 128-box rare-event
/// recipe. The box budget bounds a paving's memory, and the paving cache
/// keeps what it admits.
const MAX_PAVER_BOXES: usize = 4096;

/// Validates network-supplied analyzer options against the server's
/// resource ceilings. Four hostile frames must not be able to pin every
/// worker forever.
fn validate(
    shared: &ServerShared,
    options: &qcoral::Options,
    max_depth: Option<u64>,
) -> Option<Outcome> {
    let reject = |message: String| Some(Outcome::Error { message });
    if options.samples == 0 {
        return reject("options.samples must be at least 1".to_string());
    }
    if options.samples > shared.cfg.max_samples {
        return reject(format!(
            "options.samples {} exceeds this server's limit of {}",
            options.samples, shared.cfg.max_samples
        ));
    }
    if let Some(target) = options.target_stderr {
        // Iterative requests: the target itself must be sane, and the
        // worst-case spend per factor (initial budget, importance-sampling
        // pilot and every refinement round) must respect the same sample
        // ceiling, or a single frame with a huge round plan could pin a
        // worker far past `max_samples`.
        if !target.is_finite() || target < 0.0 {
            return reject(format!(
                "options.target_stderr must be a finite non-negative number, got {target}"
            ));
        }
        let worst_case = options.iterative_worst_case();
        if worst_case > shared.cfg.max_samples {
            return reject(format!(
                "iterative worst case of {worst_case} samples per factor exceeds this \
                 server's limit of {}",
                shared.cfg.max_samples
            ));
        }
    }
    if options.paver.max_boxes > MAX_PAVER_BOXES {
        return reject(format!(
            "options.paver.max_boxes {} exceeds the limit of {MAX_PAVER_BOXES}",
            options.paver.max_boxes
        ));
    }
    if let Some(d) = max_depth {
        if d > shared.cfg.max_depth_cap {
            return reject(format!(
                "max_depth {d} exceeds this server's limit of {}",
                shared.cfg.max_depth_cap
            ));
        }
    }
    None
}

fn execute_inner(
    shared: &ServerShared,
    op: Op,
    deadline: Option<Instant>,
    trace: Option<Arc<Trace>>,
) -> Outcome {
    match op {
        Op::Status => Outcome::Status(status(shared)),
        Op::Metrics => Outcome::Metrics(metrics_report(shared)),
        Op::System {
            source,
            options,
            profile,
        } => {
            if let Some(rejection) = validate(shared, &options, None) {
                return rejection;
            }
            let sys = match parse_system(&source) {
                Ok(sys) => sys,
                Err(e) => {
                    return Outcome::Error {
                        message: format!("system parse error: {e}"),
                    }
                }
            };
            if sys.constraint_set.pcs().len() > shared.cfg.max_pcs {
                return Outcome::Error {
                    message: format!(
                        "system declares {} path conditions, over this server's limit of {}",
                        sys.constraint_set.pcs().len(),
                        shared.cfg.max_pcs
                    ),
                };
            }
            let profile = profile.unwrap_or_else(|| UsageProfile::uniform(sys.domain.len()));
            if profile.len() != sys.domain.len() {
                return Outcome::Error {
                    message: format!(
                        "profile covers {} variables but the domain declares {}",
                        profile.len(),
                        sys.domain.len()
                    ),
                };
            }
            // Re-validate/normalize: a deserialized profile bypassed the
            // Dist::piecewise constructor and its invariants, and only
            // here is the input domain known (a truncation disjoint from
            // it must be an error, not an exact-looking probability 0).
            let profile = match validated_profile(&profile, &sys.domain) {
                Ok(p) => p,
                Err(message) => return Outcome::Error { message },
            };
            // A request carrying a target standard error runs the
            // iterative, variance-driven engine; its refined factor
            // estimates land in (and warm-load from) the same store.
            let a = analyzer(shared, options, deadline, trace);
            let report = if a.options().target_stderr.is_some() {
                a.analyze_iterative(&sys.constraint_set, &sys.domain, &profile)
            } else {
                a.analyze(&sys.constraint_set, &sys.domain, &profile)
            };
            Outcome::Report(AnalysisResponse {
                report,
                bound_mass: None,
                confidence: None,
                paths: None,
                cut_paths: None,
            })
        }
        Op::Program {
            source,
            options,
            max_depth,
            profile,
        } => {
            if let Some(rejection) = validate(shared, &options, max_depth) {
                return rejection;
            }
            let defaults = SymConfig::default();
            let sym_cfg = SymConfig {
                max_depth: max_depth.map(|d| d as usize).unwrap_or(defaults.max_depth),
                // Bounds the explored path count (and thus pavings) per
                // request; with the default config this equals the
                // pipeline default, keeping answers identical to direct
                // calls.
                max_paths: defaults.max_paths.min(shared.cfg.max_pcs),
            };
            // Named marginals; resolution against parameter names (and
            // distribution re-validation) happens inside the pipeline,
            // after parsing.
            let named: Vec<(String, qcoral_mc::Dist)> = profile
                .unwrap_or_default()
                .into_iter()
                .map(|nd| (nd.var, nd.dist))
                .collect();
            match analyze_program_with_profile(
                &analyzer(shared, options, deadline, trace),
                &source,
                &sym_cfg,
                &named,
            ) {
                Ok(analysis) => Outcome::Report(AnalysisResponse {
                    confidence: Some(analysis.confidence()),
                    bound_mass: Some(analysis.bound_mass),
                    paths: Some(analysis.paths as u64),
                    cut_paths: Some(analysis.cut_paths as u64),
                    report: analysis.target,
                }),
                Err(e @ PipelineError::Parse(_)) => Outcome::Error {
                    message: format!("program parse error: {e}"),
                },
                Err(e @ PipelineError::Profile(_)) => Outcome::Error {
                    message: e.to_string(),
                },
            }
        }
    }
}

/// Re-validates a network-supplied usage profile against the parsed
/// domain and rebuilds it through the checked [`qcoral_mc::Dist`]
/// constructors so its invariants (strictly increasing finite edges,
/// normalized non-negative weights, positive scale parameters,
/// domain-overlapping truncations) hold again — deserialization
/// constructs enum variants directly and bypasses them, which would
/// otherwise mean silently unnormalized probabilities or an
/// out-of-bounds panic in `Dist::mass`.
fn validated_profile(
    profile: &UsageProfile,
    domain: &qcoral_constraints::Domain,
) -> Result<UsageProfile, String> {
    profile
        .validated_in(&domain_box(domain))
        .map_err(|(i, e)| format!("profile variable {i}: {e}"))
}

/// Builds a per-request analyzer wired to the server's shared caches.
/// The deadline (if any) is the arrival-anchored instant computed at
/// decode time — it takes precedence over `options.deadline_ms`, which
/// would otherwise restart the clock when the job leaves the queue.
fn analyzer(
    shared: &ServerShared,
    options: qcoral::Options,
    deadline: Option<Instant>,
    trace: Option<Arc<Trace>>,
) -> Analyzer {
    let a = Analyzer::new(options)
        .with_paving_cache(Arc::clone(&shared.paving_cache))
        .with_factor_store(Arc::clone(shared.store.factor_store()))
        .with_deadline(deadline.map(Deadline::at));
    match trace {
        // The decode-time trace (it already carries the queue_wait span)
        // becomes the analyzer's run trace, so analysis spans land on
        // the same timeline.
        Some(t) => a.with_trace(t),
        None => a,
    }
}
