//! Wire-level request/response types.
//!
//! One JSON object per line in each direction. Requests carry a
//! client-chosen `id` that the matching response echoes, so a client may
//! pipeline requests and correlate answers regardless of completion
//! order. Enum encoding follows the workspace serde convention: unit
//! variants are bare strings (`"Status"`), data variants are single-key
//! objects (`{"System": {...}}`).
//!
//! # Versioning
//!
//! [`PROTOCOL_VERSION`] is bumped on any breaking change to these types.
//! Clients discover the server's version via [`Op::Status`] —
//! [`ServerStatus::protocol_version`] — and unknown request shapes are
//! answered with [`Outcome::Error`], never a closed connection, so old
//! clients fail soft.

use serde::{Deserialize, Serialize};

use qcoral::{Estimate, Options, Report};
use qcoral_mc::{Dist, UsageProfile};

use crate::store::RecoveryReport;

/// Version of the request/response schema (see module docs).
///
/// v2: `Options` gained the required `target_stderr`/`max_rounds`/
/// `round_budget` fields (iterative quantification) and `Stats` gained
/// `rounds`/`refine_samples`/`target_met` — v1 clients serializing the
/// old `Options` shape are rejected with a missing-field error.
///
/// v3: non-uniform usage profiles end to end. `Options` gained the
/// required `profile_epsilon` field (discretization bound; older
/// `Options` shapes are rejected with a missing-field error),
/// [`Op::System`]'s `profile` accepts the continuous `Dist` variants
/// (`Normal`/`Exponential`/`TruncatedNormal`), and [`Op::Program`]
/// gained an optional `profile` of [`NamedDist`] entries resolved
/// against the program's parameter names.
///
/// v4: fault tolerance and graceful degradation. `Stats` gained the
/// required `deadline_exceeded` flag (the breaking change: v3 clients
/// fail to decode v4 reports), `Options` gained the *optional*
/// `deadline_ms` request deadline (absent ⇒ no deadline, so v4 servers
/// still accept v3 request frames), and the new `Health` op answered
/// with a `HealthReport` (store recovery, WAL and scheduler fault
/// counters; folded into [`ServerStatus`] in v8). [`ServerStatus`]
/// gained `requests_shed` and `jobs_panicked`.
///
/// v5: observability. `Options` gained the required `trace` flag (the
/// breaking change: v4 request frames are rejected with a missing-field
/// error), `Report` gained the *optional* `trace` span list (absent on
/// untraced reports, so v4 responses without it still decode as far as
/// v4 clients are concerned), the new [`Op::Metrics`] op answers with a
/// [`MetricsReport`] (Prometheus-style text exposition of the server's
/// counters, gauges and histograms), and [`ServerStatus`] gained the
/// live `queue_depth` and `inflight` gauges next to the lifetime
/// totals.
///
/// v6: rare-event quantification. `Options` gained the required
/// `is_threshold` field (the escalation cutoff of the adaptive
/// importance-sampling engine; the breaking change: v5 request frames
/// are rejected with a missing-field error), the `allocation` enum
/// accepts the new `ImportanceAdaptive` variant, and `Stats` gained the
/// required `is_factors`/`is_fallbacks` counters (v5 clients fail to
/// decode v6 reports).
///
/// v7: `Stats` gained the required `backend` field (which
/// predicate-evaluation backend served the analysis; the breaking
/// change: v6 clients fail to decode v7 reports) and [`ServerStatus`]
/// gained `backend` (what this server process uses). The JIT backend
/// that motivated the field is gone: both now always read `"bulk"`, and
/// the fields stay so the wire format does not change.
///
/// v8: one probe and two retired knobs. The `Health` op and its
/// `HealthReport` are gone: [`ServerStatus`] gained the four fields it
/// lacked (`factor_store_recovered`, `recovery`, `wal_append_failures`
/// and `failpoints`), and a v7 client asking for `Health` gets an
/// [`Outcome::Error`] (an unknown op). `Options::is_threshold` left for
/// the constant `qcoral_mc::IS_THRESHOLD`, and `PaverConfig::max_passes`
/// for `qcoral_icp::MAX_PASSES`: v7 request frames that still carry
/// either key decode with that key ignored, because the serde shim skips
/// unknown keys, while v7 servers reject v8 request frames with a
/// missing-field error. Both keys only ever took one value, and a
/// network-supplied pass limit could pin a worker far past its paver
/// time budget.
///
/// v9: two more retired knobs. `Options::chunk` left for the constant
/// `qcoral_mc::SamplePlan::DEFAULT_CHUNK` (it reseeded the sample streams
/// just as `seed` does), and `PaverConfig::time_budget` left with the
/// paver's clock: a paving now depends only on the conjunction, the box
/// and the two counts. v8 request frames that still carry either key
/// decode with that key ignored, while v8 servers reject v9 request
/// frames with a missing-field error.
///
/// v10: `Options::parallel` is retired. An analysis runs on the worker
/// that picks it up, and the worker pool is where requests run
/// concurrently. The flag never changed an answer, and a
/// network-supplied `true` let one request occupy every core. v9
/// request frames that still carry the key decode with it ignored,
/// while v9 servers reject v10 request frames with a missing-field
/// error.
pub const PROTOCOL_VERSION: u32 = 10;

/// One named marginal of a program request's usage profile: programs
/// declare their inputs by name, so profiles address them by name too
/// (the server resolves names to positions after parsing).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NamedDist {
    /// Program parameter name.
    pub var: String,
    /// The marginal distribution over that parameter's interval.
    pub dist: Dist,
}

/// One quantification request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// What to do.
    pub op: Op,
}

/// The requested operation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Quantify a MiniJ program end to end (symbolic execution →
    /// quantification → confidence), via `qcoral_repro::pipeline`.
    Program {
        /// MiniJ program source.
        source: String,
        /// Analyzer configuration.
        options: Options,
        /// Symbolic-execution depth bound (`None` ⇒ the default, 50).
        max_depth: Option<u64>,
        /// Usage profile as named marginals (`None`/empty ⇒ uniform);
        /// parameters not mentioned stay uniform.
        profile: Option<Vec<NamedDist>>,
    },
    /// Quantify a raw constraint system (`var …; pc …;` syntax, the
    /// analyzer's native input) under an optional usage profile
    /// (`None` ⇒ uniform).
    System {
        /// Constraint-system source for `parse_system`.
        source: String,
        /// Analyzer configuration.
        options: Options,
        /// Per-variable input distributions; uniform when absent.
        profile: Option<UsageProfile>,
    },
    /// The one status probe ([`ServerStatus`]): configuration, store and
    /// scheduler counters, store recovery and fault counters. Answered
    /// without entering the queue.
    Status,
    /// Metrics scrape: the server's counters, gauges and histograms as
    /// Prometheus-style text exposition ([`MetricsReport`]). Like
    /// [`Op::Status`], answered inline so scrapes work under full load.
    Metrics,
}

/// One response line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The request's correlation id (0 for frames that could not be
    /// parsed far enough to recover an id).
    pub id: u64,
    /// The result.
    pub outcome: Outcome,
}

/// The result of a request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// Successful quantification.
    Report(AnalysisResponse),
    /// The request failed (parse error, overload, invalid input, or an
    /// internal panic). The connection stays open.
    Error {
        /// Human-readable description.
        message: String,
    },
    /// Answer to [`Op::Status`].
    Status(ServerStatus),
    /// Answer to [`Op::Metrics`].
    Metrics(MetricsReport),
}

/// A quantification answer: the full analyzer [`Report`] (estimate,
/// per-PC breakdown, per-request [`qcoral::Stats`] including cache and
/// factor-store counters, wall time), plus pipeline extras for
/// [`Op::Program`] requests.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnalysisResponse {
    /// The analyzer report for the target event.
    pub report: Report,
    /// Probability mass cut by the exploration bound (`Program` only).
    pub bound_mass: Option<Estimate>,
    /// `1 − bound_mass` confidence measure (`Program` only).
    pub confidence: Option<f64>,
    /// Complete paths explored (`Program` only).
    pub paths: Option<u64>,
    /// Paths cut by the bound (`Program` only).
    pub cut_paths: Option<u64>,
}

/// Answer to [`Op::Status`]: server configuration, store and scheduler
/// counters, what startup recovery found on disk, and the fault
/// counters accumulated since.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServerStatus {
    /// Schema version of this protocol.
    pub protocol_version: u32,
    /// Worker threads executing requests.
    pub workers: u64,
    /// Admission-queue capacity; submissions beyond it are rejected.
    pub queue_cap: u64,
    /// Micro-batch size limit per dispatch.
    pub max_batch: u64,
    /// Entries currently in the cross-run factor store.
    pub store_entries: u64,
    /// Factor-store entry capacity (LRU beyond it).
    pub store_capacity: u64,
    /// Cumulative factor-store hits since startup.
    pub store_hits: u64,
    /// Cumulative factor-store misses since startup.
    pub store_misses: u64,
    /// Requests executed to completion.
    pub requests_served: u64,
    /// Requests rejected at admission (queue full).
    pub requests_rejected: u64,
    /// Queued requests shed because their deadline passed before a
    /// worker picked them up (each was answered with a flagged partial
    /// report).
    pub requests_shed: u64,
    /// Jobs that panicked on a worker (contained; the pool survived).
    pub jobs_panicked: u64,
    /// Micro-batches dispatched to the worker pool.
    pub batches_dispatched: u64,
    /// Jobs currently waiting in the admission queue (live, not a
    /// lifetime total).
    pub queue_depth: u64,
    /// Jobs of the current micro-batch not yet finished (live).
    pub inflight: u64,
    /// Predicate-evaluation backend this server uses for tape-compiled
    /// predicates: always `"bulk"`, the columnar interpreter.
    pub backend: String,
    /// Persisted state (snapshot and/or WAL) survived into the warm
    /// store at startup. `false` for a fresh path or in-memory store.
    pub factor_store_recovered: bool,
    /// Full startup-recovery breakdown.
    pub recovery: RecoveryReport,
    /// WAL append attempts of this server's store that failed since
    /// startup (in-memory state stays correct; crash durability until the
    /// next snapshot suffers).
    pub wal_append_failures: u64,
    /// Active fault-injection sites (empty unless the server was built
    /// with the `failpoints` feature and points were configured).
    pub failpoints: Vec<FailpointStatus>,
}

/// Answer to [`Op::Metrics`]: the server's metric families rendered as
/// Prometheus-style text exposition (`# HELP`/`# TYPE` plus value
/// lines; histograms as cumulative `_bucket{le="…"}` series). Carried
/// as text so scrapers and humans read the same bytes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Schema version of this protocol.
    pub protocol_version: u32,
    /// The rendered exposition of the server's own registry: scheduler,
    /// factor store, request timings and the totals of the analyses this
    /// server answered. Nothing in it counts another server's work.
    pub text: String,
}

/// One fault-injection site's counters (see the `qcoral-failpoints`
/// crate); surfaced so chaos harnesses can assert injections actually
/// happened.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailpointStatus {
    /// Failpoint name (e.g. `store.wal.append`).
    pub name: String,
    /// Times the site was evaluated.
    pub evaluations: u64,
    /// Evaluations that fired (injected a failure).
    pub fired: u64,
}
