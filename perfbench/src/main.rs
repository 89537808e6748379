//! The repository benchmark: closed-loop clients against an in-process
//! loopback `qcoral_service::Server`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_sweep|warm_replay|rare_iterative> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! `min(2, nproc)` client threads each hold one blocking `Client`
//! connection with one request in flight: every real caller (`qcoralctl`,
//! CI jobs) waits for its answer, so the load is a closed loop. The
//! server runs `ServiceConfig::default()` workers with a snapshot path,
//! as the daemon does. With `--trace 0` the run prints the end-to-end
//! metrics; with `--trace 1` it sends the same workload with
//! `Options::trace` on and prints the per-layer split instead. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `perfbench/README.md` says which end-to-end metric each
//! layer metric should move, on which workload.

mod inputs;
mod layers;

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qcoral::{dependency_partition, ConstraintSet, Estimate};
use qcoral_constraints::parse::parse_system;
use qcoral_obs::Trace;
use qcoral_service::{
    wire, AnalysisResponse, Client, Op, Outcome, PersistentStore, Request as WireRequest, Response,
    Server, ServerStatus, ServiceConfig,
};
use qcoral_symexec::{parse_program, symbolic_execute, SymConfig};

use inputs::{Payload, ProgramVariant, RareVariant, Request};
use layers::Layer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A timed phase runs at least this long *and* this many requests: with
/// 200 requests at least 10 lie beyond the 95th percentile.
const MIN_REQUESTS: u64 = 200;
/// The estimate digest covers request indices below this, which every
/// run completes whatever its speed or thread schedule.
const DIGEST_REQUESTS: u64 = 200;
/// A rare-event estimate must lie within this many reported standard
/// errors of the closed form.
const RARE_SIGMAS: f64 = 5.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ColdSweep,
    WarmReplay,
    RareIterative,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ColdSweep,
        Workload::WarmReplay,
        Workload::RareIterative,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold_sweep",
            Workload::WarmReplay => "warm_replay",
            Workload::RareIterative => "rare_iterative",
        }
    }
}

/// How long and how large a run is.
#[derive(Clone, Copy, Debug)]
struct Plan {
    seconds: f64,
    min_requests: u64,
    setup_reps: usize,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--smoke"] {
        smoke();
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold_sweep|warm_replay|rare_iterative> \
                 --seed <n> --seconds <s> --trace <0|1>   |   perfbench --smoke"
            );
            std::process::exit(2);
        }
    };
    let plan = Plan {
        seconds: args.seconds,
        min_requests: MIN_REQUESTS,
        setup_reps: SETUP_REPS,
    };
    let result = run(args.workload, args.seed, args.trace, plan);
    for line in &result.notes {
        println!("{line}");
    }
    println!("{}", result.json());
}

// ---------------------------------------------------------------------
// Closed-loop clients
// ---------------------------------------------------------------------

/// Wire-layer measurements of one request, made by the client thread
/// after the round trip on the request's own frames.
#[derive(Clone, Copy, Debug)]
struct WireSample {
    codec_us: f64,
    request_bytes: usize,
    response_bytes: usize,
}

/// One completed request.
struct Sample {
    index: u64,
    request: Request,
    latency_ms: f64,
    answer: Result<AnalysisResponse, String>,
    wire: Option<WireSample>,
}

enum Stop {
    /// Run until `seconds` have passed and at least `min_requests`
    /// indices were taken.
    After { seconds: f64, min_requests: u64 },
    /// Send exactly indices `0..n`.
    Count(u64),
}

/// The benchmark's own spans (client calls, wire codec, persistence),
/// kept in memory and written out when the run ends.
type Spans = Option<Arc<Trace>>;

fn to_op(r: &Request) -> Op {
    match &r.payload {
        Payload::Program { source, profile } => Op::Program {
            source: source.clone(),
            options: r.options.clone(),
            max_depth: None,
            profile: profile.clone(),
        },
        Payload::System { source, profile } => Op::System {
            source: source.clone(),
            options: r.options.clone(),
            profile: Some(profile.clone()),
        },
    }
}

fn send(client: &mut Client, r: &Request) -> Result<AnalysisResponse, String> {
    let answer = match &r.payload {
        Payload::Program { source, profile } => {
            client.analyze_program(source, r.options.clone(), None, profile.clone())
        }
        Payload::System { source, profile } => {
            client.analyze_system(source, r.options.clone(), Some(profile.clone()))
        }
    };
    answer.map_err(|e| e.to_string())
}

/// Times the four `qcoral_service::wire` calls one request costs on its
/// frames: encode and decode of the request, then of the (untraced)
/// response.
fn time_codec(r: &Request, answer: &AnalysisResponse, spans: &Trace) -> WireSample {
    let request = WireRequest {
        id: 1,
        op: to_op(r),
    };
    let mut untraced = answer.clone();
    untraced.report.trace = None;
    let response = Response {
        id: 1,
        outcome: Outcome::Report(untraced),
    };
    let t = Instant::now();
    let s = spans.now_us();
    let request_frame = wire::encode_request(&request);
    spans.record("wire.encode_request", "bench", s, Vec::new());
    let s = spans.now_us();
    let decoded = wire::decode_request(&request_frame);
    spans.record("wire.decode_request", "bench", s, Vec::new());
    let s = spans.now_us();
    let response_frame = wire::encode_response(&response);
    spans.record("wire.encode_response", "bench", s, Vec::new());
    let s = spans.now_us();
    let decoded_response = wire::decode_response(&response_frame);
    spans.record("wire.decode_response", "bench", s, Vec::new());
    let codec_us = t.elapsed().as_secs_f64() * 1e6;
    assert!(
        decoded.is_ok() && decoded_response.is_ok(),
        "frames round-trip"
    );
    WireSample {
        codec_us,
        request_bytes: request_frame.len(),
        response_bytes: response_frame.len(),
    }
}

/// Drives `clients` closed-loop client threads. Request indices come
/// from one shared counter, so the indices sent are always `0..n`.
/// Returns the samples sorted by index and the phase's wall time.
fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    make: &(dyn Fn(u64) -> Request + Sync),
    stop: Stop,
    spans: &Spans,
) -> (Vec<Sample>, f64) {
    let next = AtomicU64::new(0);
    let t0 = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                let stop = &stop;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect to the loopback server");
                    let mut out = Vec::new();
                    loop {
                        let index = match *stop {
                            Stop::After {
                                seconds,
                                min_requests,
                            } => {
                                if t0.elapsed().as_secs_f64() >= seconds
                                    && next.load(Ordering::SeqCst) >= min_requests
                                {
                                    break;
                                }
                                next.fetch_add(1, Ordering::SeqCst)
                            }
                            Stop::Count(n) => {
                                let i = next.fetch_add(1, Ordering::SeqCst);
                                if i >= n {
                                    break;
                                }
                                i
                            }
                        };
                        let request = make(index);
                        let start_us = spans.as_ref().map_or(0, |t| t.now_us());
                        let sent = Instant::now();
                        let answer = send(&mut client, &request);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let wire = match (spans, &answer) {
                            (Some(t), Ok(a)) => {
                                t.record(
                                    "client.call",
                                    "bench",
                                    start_us,
                                    vec![qcoral_obs::trace::arg("index", index)],
                                );
                                Some(time_codec(&request, a, t))
                            }
                            _ => None,
                        };
                        out.push(Sample {
                            index,
                            request,
                            latency_ms,
                            answer,
                            wire,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    samples.sort_by_key(|s| s.index);
    (samples, elapsed)
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// Scratch files of one run (snapshots, WALs, the span dump), under
/// `perfbench/out/` of the checkout the benchmark was built in.
struct Files {
    dir: PathBuf,
    tag: String,
}

impl Files {
    fn new(workload: Workload) -> Files {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).expect("create perfbench/out");
        Files {
            dir,
            tag: format!("{}-{}", workload.name(), std::process::id()),
        }
    }

    /// A fresh snapshot path (any leftover snapshot and WAL removed).
    fn snapshot(&self, name: &str) -> PathBuf {
        let p = self.dir.join(format!("{}-{name}.snapshot.json", self.tag));
        remove_snapshot(&p);
        p
    }
}

fn remove_snapshot(p: &Path) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(qcoral_service::store::wal_path(p));
}

fn start_server(snapshot: &Path) -> Server {
    Server::start(ServiceConfig {
        snapshot: Some(snapshot.to_path_buf()),
        ..ServiceConfig::default()
    })
    .expect("bind a loopback server")
}

fn status(addr: SocketAddr) -> ServerStatus {
    let mut client = Client::connect(addr).expect("connect for status");
    client.status().expect("status probe")
}

/// Bitwise equality of two estimates.
fn same_estimate(a: &Estimate, b: &Estimate) -> bool {
    a.mean.to_bits() == b.mean.to_bits() && a.variance.to_bits() == b.variance.to_bits()
}

/// Whether two answers carry bit-identical estimates, overall and per
/// path condition.
fn same_answer(a: &AnalysisResponse, b: &AnalysisResponse) -> bool {
    same_estimate(&a.report.estimate, &b.report.estimate)
        && a.report.per_pc.len() == b.report.per_pc.len()
        && a.report
            .per_pc
            .iter()
            .zip(&b.report.per_pc)
            .all(|(x, y)| same_estimate(x, y))
}

/// Everything a measured phase needs from set-up.
struct Prepared {
    server: Server,
    snapshot: PathBuf,
    programs: Vec<ProgramVariant>,
    rares: Vec<RareVariant>,
    /// `warm_replay`: each pool variant's answer from the cold pass.
    cold_answers: Vec<AnalysisResponse>,
    status: ServerStatus,
    /// Set-up problems (the cold pass failed or was not reproducible).
    problems: Vec<String>,
}

impl Prepared {
    fn pool_len(&self) -> usize {
        self.programs.len().max(self.rares.len())
    }

    fn label(&self, variant: usize) -> &str {
        match self.programs.get(variant) {
            Some(p) => &p.label,
            None => &self.rares[variant].label,
        }
    }

    fn request(&self, workload: Workload, seed: u64, index: u64, trace: bool) -> Request {
        match workload {
            Workload::ColdSweep => inputs::cold_request(&self.programs, seed, index, trace),
            Workload::WarmReplay => inputs::warm_request(&self.programs, seed, index, trace),
            Workload::RareIterative => inputs::rare_request(&self.rares, seed, index, trace),
        }
    }
}

/// One set-up: start the server, generate the inputs, pre-warm, and for
/// `warm_replay` answer the pool once, persist and restart from the
/// snapshot.
fn setup_once(workload: Workload, files: &Files, rep: usize, clients: usize) -> Prepared {
    let snapshot = files.snapshot(&format!("setup{rep}"));
    let mut server = start_server(&snapshot);
    let mut problems = Vec::new();
    let (programs, rares) = match workload {
        Workload::RareIterative => (Vec::new(), inputs::rare_variants()),
        _ => (inputs::program_variants(), Vec::new()),
    };
    let mut cold_answers = Vec::new();
    if workload == Workload::WarmReplay {
        let make = |i: u64| inputs::program_request(&programs, i as usize, false);
        let (cold, _) = closed_loop(
            server.addr(),
            clients,
            &make,
            Stop::Count(programs.len() as u64),
            &None,
        );
        for s in cold {
            match s.answer {
                Ok(a) => cold_answers.push(a),
                Err(e) => problems.push(format!("cold pass, variant {}: {e}", s.index)),
            }
        }
        // The shutdown save persists the snapshot the restart loads.
        server.shutdown();
        server = start_server(&snapshot);
    }
    if workload == Workload::RareIterative {
        // Pre-warm the importance-sampling path once per subject.
        let make = |i: u64| inputs::rare_base_request(&rares, i as usize, false);
        let (warm, _) = closed_loop(
            server.addr(),
            clients,
            &make,
            Stop::Count(rares.len() as u64),
            &None,
        );
        problems.extend(
            warm.into_iter()
                .filter_map(|s| s.answer.err())
                .map(|e| format!("pre-warm: {e}")),
        );
    }
    let status = status(server.addr());
    Prepared {
        server,
        snapshot,
        programs,
        rares,
        cold_answers,
        status,
        problems,
    }
}

/// Sets up `reps` times, one server at a time, and keeps the last set-up.
/// Returns it with the median set-up time in seconds.
fn setup(workload: Workload, files: &Files, reps: usize, clients: usize) -> (Prepared, f64) {
    let mut times = Vec::new();
    let mut problems = Vec::new();
    let mut first_answers: Option<Vec<AnalysisResponse>> = None;
    loop {
        let t0 = Instant::now();
        let mut p = setup_once(workload, files, times.len(), clients);
        times.push(t0.elapsed().as_secs_f64());
        problems.append(&mut p.problems);
        match &first_answers {
            None => first_answers = Some(p.cold_answers.clone()),
            Some(first) => {
                let same = first.len() == p.cold_answers.len()
                    && first
                        .iter()
                        .zip(&p.cold_answers)
                        .all(|(a, b)| same_answer(a, b));
                if !same {
                    problems.push("cold pass answers differ between set-ups".to_string());
                }
            }
        }
        if times.len() >= reps {
            p.problems = problems;
            return (p, median(&mut times));
        }
        p.server.shutdown();
        remove_snapshot(&p.snapshot);
    }
}

// ---------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------

/// Checks one answer: transport and server errors, deadline flags, the
/// cache behaviour the workload is built for, agreement with the cold
/// pass (`warm_replay`) and with the closed form (`rare_iterative`).
fn check(workload: Workload, prepared: &Prepared, s: &Sample) -> Result<(), String> {
    let a = s.answer.as_ref().map_err(|e| e.clone())?;
    let st = &a.report.stats;
    if st.deadline_exceeded {
        return Err("deadline exceeded".to_string());
    }
    match workload {
        Workload::ColdSweep | Workload::RareIterative => {
            if st.paving_cache_hits != 0 || st.factor_store_hits != 0 {
                return Err(format!(
                    "fresh input hit a cache: {} paving-cache hits, {} factor-store hits",
                    st.paving_cache_hits, st.factor_store_hits
                ));
            }
        }
        Workload::WarmReplay => {
            if st.pavings != 0 || st.samples_drawn != 0 {
                return Err(format!(
                    "warm request paved {} times and drew {} samples",
                    st.pavings, st.samples_drawn
                ));
            }
            match prepared.cold_answers.get(s.request.variant) {
                Some(cold) if same_answer(a, cold) => {}
                _ => return Err("warm answer differs from the cold pass".to_string()),
            }
        }
    }
    if let Some(truth) = s.request.truth {
        let e = &a.report.estimate;
        let sigma = e.variance.sqrt();
        if (e.mean - truth).abs() > RARE_SIGMAS * sigma {
            return Err(format!(
                "estimate {:e} ± {sigma:e} is more than {RARE_SIGMAS}σ from the closed form {truth:e}",
                e.mean
            ));
        }
    }
    Ok(())
}

/// FNV-1a over (request index, estimate bits) of the first
/// [`DIGEST_REQUESTS`] requests.
fn digest(samples: &[Sample]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in samples.iter().filter(|s| s.index < DIGEST_REQUESTS) {
        fold(s.index);
        match &s.answer {
            Ok(a) => {
                fold(a.report.estimate.mean.to_bits());
                fold(a.report.estimate.variance.to_bits());
            }
            Err(_) => fold(u64::MAX),
        }
    }
    h
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile (`q` in `[0, 1]`); NaN on an empty slice.
fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Reported standard error over the estimate (0 for a zero estimate).
fn relative_stderr(e: &Estimate) -> f64 {
    if e.mean == 0.0 {
        0.0
    } else {
        e.variance.sqrt() / e.mean.abs()
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0u64), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `num / den`, 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set (`VmHWM`) of this process, which hosts the server.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

// ---------------------------------------------------------------------
// A run
// ---------------------------------------------------------------------

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines printed before the result: run context, digest, failures.
    notes: Vec<String>,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".to_string(),
    }
}

fn run(workload: Workload, seed: u64, trace: bool, plan: Plan) -> RunResult {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = nproc.min(2);
    let files = Files::new(workload);
    let spans: Spans = trace.then(Trace::new);

    let (prepared, setup_s) = setup(workload, &files, plan.setup_reps, clients);
    let addr = prepared.server.addr();
    let batches_before = prepared.status.batches_dispatched;
    let make = |i: u64| prepared.request(workload, seed, i, trace);
    let (samples, elapsed) = closed_loop(
        addr,
        clients,
        &make,
        Stop::After {
            seconds: plan.seconds,
            min_requests: plan.min_requests,
        },
        &spans,
    );
    let end_status = status(addr);

    // Per-request checks.
    let mut failures: Vec<(u64, String)> = samples
        .iter()
        .filter_map(|s| check(workload, &prepared, s).err().map(|e| (s.index, e)))
        .collect();

    // Replay, untraced, for bit-identity: every cold_sweep run replays
    // on a fresh server; a traced run of any workload replays too, which
    // checks that tracing never perturbs an estimate. warm_replay
    // replays on its warm server (a fresh one would be cold).
    let mut replay_p50 = f64::NAN;
    if workload == Workload::ColdSweep || trace {
        let n = samples.len() as u64;
        let replay = |addr: SocketAddr| {
            let make = |i: u64| prepared.request(workload, seed, i, false);
            closed_loop(addr, clients, &make, Stop::Count(n), &None).0
        };
        let replayed = if workload == Workload::WarmReplay {
            replay(addr)
        } else {
            let snapshot = files.snapshot("replay");
            let fresh = start_server(&snapshot);
            let r = replay(fresh.addr());
            fresh.shutdown();
            remove_snapshot(&snapshot);
            r
        };
        for (s, r) in samples.iter().zip(&replayed) {
            let same = match (&s.answer, &r.answer) {
                (Ok(a), Ok(b)) => same_answer(a, b),
                _ => false,
            };
            if !same {
                failures.push((s.index, "replay is not bit-identical".to_string()));
            }
        }
        replay_p50 = median(&mut replayed.iter().map(|r| r.latency_ms).collect::<Vec<_>>());
    }
    failures.sort_by_key(|(i, _)| *i);
    let mut failed_indices: Vec<u64> = failures.iter().map(|(i, _)| *i).collect();
    failed_indices.dedup();
    let failed = failed_indices.len() as u64;
    let attempted = samples.len() as u64;

    let answers: Vec<&AnalysisResponse> = samples
        .iter()
        .filter_map(|s| s.answer.as_ref().ok())
        .collect();
    let target_met_share = ratio(
        answers.iter().filter(|a| a.report.stats.target_met).count() as u64,
        answers.len() as u64,
    );
    let mut latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let latency_p50 = median(&mut latencies);

    let mut notes = vec![
        format!(
            "context: workload={} seed={seed} trace={} nproc={nproc} server_workers={} clients={clients} \
             backend={} build={} commit={}",
            workload.name(),
            u8::from(trace),
            prepared.status.workers,
            prepared.status.backend,
            if cfg!(debug_assertions) { "debug" } else { "release" },
            commit()
        ),
        format!(
            "requests: {attempted} in {elapsed:.3} s in {} micro-batches, failed {failed} (failed_share {}), \
             target_met_share {target_met_share}, estimate digest {:016x} over indices < {DIGEST_REQUESTS}",
            end_status.batches_dispatched - batches_before,
            ratio(failed, attempted),
            digest(&samples)
        ),
    ];
    for v in 0..prepared.pool_len() {
        let of_v: Vec<&Sample> = samples.iter().filter(|s| s.request.variant == v).collect();
        let answered: Vec<&AnalysisResponse> =
            of_v.iter().filter_map(|s| s.answer.as_ref().ok()).collect();
        notes.push(format!(
            "variant {v} ({}): {} requests, p50 {:.3} ms, rounds/request {:.2}, target met {}, \
             median σ/estimate {:.5}",
            prepared.label(v),
            of_v.len(),
            median(&mut of_v.iter().map(|s| s.latency_ms).collect::<Vec<_>>()),
            mean(answered.iter().map(|a| a.report.stats.rounds as f64)),
            answered
                .iter()
                .filter(|a| a.report.stats.target_met)
                .count(),
            median(
                &mut answered
                    .iter()
                    .map(|a| relative_stderr(&a.report.estimate))
                    .collect::<Vec<_>>()
            ),
        ));
    }
    for p in &prepared.problems {
        notes.push(format!("setup failure: {p}"));
    }
    for (i, e) in failures.iter().take(10) {
        let label = prepared.label(samples[*i as usize].request.variant);
        notes.push(format!("failure: request {i} ({label}): {e}"));
    }

    let metrics = if !trace {
        // Over whole cycles of the pool only, so every variant counts
        // equally often and the median does not depend on run length.
        let pool = prepared.pool_len() as u64;
        let whole_cycles = attempted / pool * pool;
        let mut rel: Vec<f64> = samples
            .iter()
            .filter(|s| s.index < whole_cycles)
            .filter_map(|s| s.answer.as_ref().ok())
            .map(|a| &a.report.estimate)
            .filter(|e| e.variance > 0.0 && e.mean != 0.0)
            .map(relative_stderr)
            .collect();
        vec![
            ("setup_s", setup_s, "s"),
            ("latency_p50_ms", latency_p50, "ms"),
            ("latency_p95_ms", percentile(&mut latencies, 0.95), "ms"),
            ("throughput_rps", attempted as f64 / elapsed, "req/s"),
            ("rel_stderr_median", median(&mut rel), "ratio"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    } else {
        let spans = spans.as_ref().expect("traced run keeps spans");
        let m = layer_metrics(
            &prepared,
            &samples,
            &files,
            spans,
            Counts {
                batches: end_status.batches_dispatched - batches_before,
                store_entries: end_status.store_entries,
                target_met_share,
                trace_overhead_share: latency_p50 / replay_p50 - 1.0,
            },
        );
        let dump = files
            .dir
            .join(format!("{}-seed{seed}-spans.json", workload.name()));
        std::fs::write(&dump, spans.take().to_chrome_json()).expect("write the span dump");
        notes.push(format!("spans: {}", dump.display()));
        m
    };

    prepared.server.shutdown();
    remove_snapshot(&prepared.snapshot);

    RunResult {
        correct: failed == 0 && prepared.problems.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
    }
}

// ---------------------------------------------------------------------
// Per-layer metrics (traced run)
// ---------------------------------------------------------------------

/// The target constraint set and variable count of a request's base
/// input, built through the symbolic-execution and constraint-parsing
/// layers' public functions.
fn constraint_set(payload: &Payload) -> (ConstraintSet, usize) {
    match payload {
        Payload::Program { source, .. } => {
            let program = parse_program(source).expect("benchmark program parses");
            let r = symbolic_execute(&program, &SymConfig::default());
            let n = r.domain.len();
            (r.target, n)
        }
        Payload::System { source, .. } => {
            let sys = parse_system(source).expect("benchmark system parses");
            let n = sys.domain.len();
            (sys.constraint_set, n)
        }
    }
}

/// `dependency_partition` time of each variant's target constraint set
/// (median of five calls), in milliseconds.
fn partition_ms(samples: &[Sample], spans: &Trace) -> Vec<(usize, f64)> {
    let mut out: Vec<(usize, f64)> = Vec::new();
    for s in samples {
        if out.iter().any(|(v, _)| *v == s.request.variant) {
            continue;
        }
        let (cs, nvars) = constraint_set(&s.request.payload);
        let mut times: Vec<f64> = (0..5)
            .map(|_| {
                let start = spans.now_us();
                let t = Instant::now();
                std::hint::black_box(dependency_partition(std::hint::black_box(&cs), nvars));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                spans.record("analyzer.dependency_partition", "bench", start, Vec::new());
                ms
            })
            .collect();
        out.push((s.request.variant, median(&mut times)));
    }
    out
}

/// Saves the factors the workload put in the server's store through a
/// fresh `PersistentStore`, then recovers them: (save ms, snapshot
/// bytes, recovery ms).
fn persist_probe(prepared: &Prepared, files: &Files, spans: &Trace) -> (f64, u64, f64) {
    let entries = prepared.server.factor_store().entries();
    let path = files.snapshot("persist-probe");
    let cap = entries.len().max(1);
    let store = PersistentStore::open(Some(path.clone()), cap);
    store.factor_store().absorb(entries.clone());
    let start = spans.now_us();
    let t = Instant::now();
    store.save().expect("save the probe snapshot");
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    spans.record("persist.save", "bench", start, Vec::new());
    drop(store);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let start = spans.now_us();
    let t = Instant::now();
    let recovered = PersistentStore::open(Some(path.clone()), cap);
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    spans.record("persist.open", "bench", start, Vec::new());
    assert_eq!(
        recovered.factor_store().len(),
        entries.len(),
        "every saved factor recovers"
    );
    drop(recovered);
    remove_snapshot(&path);
    (save_ms, bytes, recovery_ms)
}

/// Whole-run figures the per-layer metrics need besides the samples.
struct Counts {
    /// Micro-batches the scheduler dispatched during the timed phase.
    batches: u64,
    /// Factor-store entries when the timed phase ended.
    store_entries: u64,
    target_met_share: f64,
    /// Traced over untraced median latency, minus one.
    trace_overhead_share: f64,
}

fn layer_metrics(
    prepared: &Prepared,
    samples: &[Sample],
    files: &Files,
    spans: &Trace,
    counts: Counts,
) -> Vec<(&'static str, f64, &'static str)> {
    let ok: Vec<(&Sample, &AnalysisResponse)> = samples
        .iter()
        .filter_map(|s| s.answer.as_ref().ok().map(|a| (s, a)))
        .collect();
    let splits: Vec<(f64, layers::Split)> = ok
        .iter()
        .map(|(s, a)| {
            let spans = a.report.trace.as_ref().map_or(&[][..], |t| &t.spans[..]);
            (s.latency_ms, layers::split(spans))
        })
        .collect();
    let layer_ms = |l: Layer| {
        mean(
            splits
                .iter()
                .map(|(_, s)| s.self_us[l as usize] as f64 / 1e3),
        )
    };
    let stat = |f: &dyn Fn(&qcoral::Stats) -> u64| -> u64 {
        ok.iter().map(|(_, a)| f(&a.report.stats)).sum()
    };
    let per_request = |total: u64| ratio(total, ok.len() as u64);
    let wire = |f: &dyn Fn(&WireSample) -> f64| {
        mean(samples.iter().filter_map(|s| s.wire.as_ref()).map(f))
    };

    let partition = partition_ms(samples, spans);
    let (save_ms, snapshot_bytes, recovery_ms) = persist_probe(prepared, files, spans);

    let samples_drawn = stat(&|s| s.samples_drawn);
    let mc_us: u64 = splits
        .iter()
        .map(|(_, s)| s.self_us[Layer::Mc as usize])
        .sum();
    vec![
        ("wire.codec_us", wire(&|w| w.codec_us), "us"),
        (
            "wire.request_bytes",
            wire(&|w| w.request_bytes as f64),
            "bytes",
        ),
        (
            "wire.response_bytes",
            wire(&|w| w.response_bytes as f64),
            "bytes",
        ),
        ("scheduler.queue_wait_ms", layer_ms(Layer::Scheduler), "ms"),
        ("scheduler.batches", counts.batches as f64, "count"),
        (
            "symexec.parse_ms",
            mean(splits.iter().map(|(_, s)| s.parse_us as f64 / 1e3)),
            "ms",
        ),
        (
            "symexec.exec_ms",
            mean(splits.iter().map(|(_, s)| s.exec_us as f64 / 1e3)),
            "ms",
        ),
        (
            "symexec.paths",
            mean(ok.iter().map(|(_, a)| a.paths.unwrap_or(0) as f64)),
            "count",
        ),
        ("analyzer.self_ms", layer_ms(Layer::Analyzer), "ms"),
        (
            "analyzer.partition_ms",
            mean(ok.iter().map(|(s, _)| {
                partition
                    .iter()
                    .find(|(v, _)| *v == s.request.variant)
                    .map_or(0.0, |(_, ms)| *ms)
            })),
            "ms",
        ),
        (
            "analyzer.factors",
            per_request(stat(&|s| s.cache_hits + s.cache_misses)),
            "count",
        ),
        ("analyzer.rounds", per_request(stat(&|s| s.rounds)), "count"),
        (
            "analyzer.target_met_share",
            counts.target_met_share,
            "ratio",
        ),
        (
            "factor_store.hit_ratio",
            ratio(
                stat(&|s| s.factor_store_hits),
                stat(&|s| s.factor_store_hits + s.factor_store_misses),
            ),
            "ratio",
        ),
        ("factor_store.entries", counts.store_entries as f64, "count"),
        ("persist.save_ms", save_ms, "ms"),
        ("persist.snapshot_bytes", snapshot_bytes as f64, "bytes"),
        ("persist.recovery_ms", recovery_ms, "ms"),
        ("icp.paving_ms", layer_ms(Layer::Icp), "ms"),
        ("icp.pavings", per_request(stat(&|s| s.pavings)), "count"),
        (
            "icp.boxes",
            per_request(stat(&|s| s.inner_boxes + s.boundary_boxes)),
            "count",
        ),
        (
            "icp.paving_cache_hit_ratio",
            ratio(
                stat(&|s| s.paving_cache_hits),
                stat(&|s| s.paving_cache_hits + s.paving_cache_misses),
            ),
            "ratio",
        ),
        ("tape.compile_ms", layer_ms(Layer::Tape), "ms"),
        (
            "tape.cache_hit_ratio_inexact",
            ratio(
                stat(&|s| s.tape_cache_hits),
                stat(&|s| s.tape_cache_hits + s.tape_cache_misses),
            ),
            "ratio",
        ),
        ("mc.sample_ms", layer_ms(Layer::Mc), "ms"),
        ("mc.samples", per_request(samples_drawn), "count"),
        ("mc.ns_per_sample", ratio(mc_us * 1000, samples_drawn), "ns"),
        (
            "mc.is_factors",
            per_request(stat(&|s| s.is_factors)),
            "count",
        ),
        (
            "mc.is_fallbacks",
            per_request(stat(&|s| s.is_fallbacks)),
            "count",
        ),
        (
            "obs.unaccounted_ms",
            mean(
                splits
                    .iter()
                    .map(|(latency, s)| latency - s.covered_us as f64 / 1e3),
            ),
            "ms",
        ),
        (
            "obs.trace_overhead_share",
            counts.trace_overhead_share,
            "ratio",
        ),
    ]
}

// ---------------------------------------------------------------------
// Smoke mode
// ---------------------------------------------------------------------

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared_metrics(key: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = serde_json::Value::parse(&text).expect("BENCHMARK.json parses");
    let Some(serde_json::Value::Array(items)) = doc.get(key) else {
        panic!("BENCHMARK.json lacks `{key}`");
    };
    let field = |item: &serde_json::Value, f: &str| match item.get(f) {
        Some(serde_json::Value::String(s)) => s.clone(),
        _ => panic!("BENCHMARK.json `{key}` entry lacks `{f}`"),
    };
    items
        .iter()
        .map(|item| (field(item, "name"), field(item, "unit")))
        .collect()
}

/// Runs every workload briefly, traced and untraced, and asserts that
/// all checks pass and that each run prints exactly the metrics
/// `BENCHMARK.json` declares, with their units.
fn smoke() {
    let plan = Plan {
        seconds: 0.2,
        min_requests: 4,
        setup_reps: 1,
    };
    for workload in Workload::ALL {
        for trace in [false, true] {
            let r = run(workload, 1, trace, plan);
            let printed: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect();
            let declared = declared_metrics(if trace { "per_layer" } else { "end_to_end" });
            assert_eq!(
                printed,
                declared,
                "{} (trace {trace}) prints the declared metrics",
                workload.name()
            );
            assert!(
                r.correct && r.failed == 0 && r.attempted >= plan.min_requests,
                "{} (trace {trace}) passes its checks: {:?}",
                workload.name(),
                r.notes
            );
            println!(
                "smoke: {} trace={} ok: {}",
                workload.name(),
                u8::from(trace),
                r.json()
            );
        }
    }
    println!("smoke: all workloads ok");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.95), 190.0);
        assert_eq!(median(&mut xs), 100.0);
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload warm_replay --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(ok.workload, Workload::WarmReplay);
        assert!(ok.trace);
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&args("--workload cold_sweep --seed 7 --seconds 10")).is_err());
    }

    /// The smoke mode end to end (release build recommended:
    /// `cargo test --release --manifest-path perfbench/Cargo.toml`).
    #[test]
    fn smoke_mode_passes() {
        smoke();
    }
}
