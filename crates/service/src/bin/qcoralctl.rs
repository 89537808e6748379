//! Command-line client for a running `qcoral-serviced`.
//!
//! ```text
//! qcoralctl --addr HOST:PORT status
//! qcoralctl --addr HOST:PORT metrics
//! qcoralctl --addr HOST:PORT system  "var x in [0,1]; pc x < 0.5;" [options]
//! qcoralctl --addr HOST:PORT program FILE.mj [options] [--max-depth N]
//!
//! options: [--samples N] [--seed N] [--plain|--strat]
//!          [--target-stderr X] [--round-budget N] [--max-rounds N]
//!          [--allocation equal|proportional|variance|importance]
//!          [--paver-boxes N] [--profile SPEC] [--profile-epsilon X]
//!          [--retries N] [--timeout MS] [--trace FILE]
//! ```
//!
//! `status` prints the server's configuration and counters: store
//! entries and hits, served/rejected/shed/panicked requests, what
//! startup recovery found (snapshot/WAL entries, corruption counts), and
//! WAL append failures.
//!
//! `metrics` prints the server's metric families as Prometheus-style
//! text exposition (counters, gauges, and histograms with
//! `_bucket{le="…"}` series).
//!
//! `--trace FILE` (for `system`/`program`) requests a per-request
//! execution trace and writes it to FILE as Chrome trace-event JSON —
//! load it in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`
//! to see queue wait, parsing, paving, tape compilation and per-round
//! sampling spans on one timeline. Tracing never changes the estimates:
//! span clocks are monotonic timers, not randomness.
//!
//! `--retries N` retries connects and transient transport failures up
//! to N times with capped exponential backoff (safe: identical requests
//! get bit-identical answers). `--timeout MS` attaches a request
//! deadline — on expiry the server returns a *partial* report with
//! `stats.deadline_exceeded: true` instead of an error.
//!
//! `--target-stderr` switches the server to the iterative,
//! variance-driven engine: sampling rounds of `--round-budget` samples
//! continue until the composed standard error reaches `X` or
//! `--max-rounds` is exhausted (check `stats.target_met` in the reply).
//!
//! `--allocation importance` enables per-factor rare-event escalation:
//! factors whose pilot estimate falls below 0.01
//! (`qcoral_mc::IS_THRESHOLD`) hand their boundary budget to the
//! paver-seeded adaptive importance-sampling engine (check
//! `stats.is_factors` / `stats.is_fallbacks` in the reply). For ~1e-8
//! events pair it with a finer paving via `--paver-boxes 128` — the
//! boundary boxes seed the IS proposal and bound its importance weights.
//!
//! `--profile` attaches a non-uniform usage profile, one `name ~ dist`
//! entry per input separated by `;`, e.g.
//!
//! ```text
//! --profile 'x ~ N(0, 1); y ~ Exp(2); z ~ TN(0.5, 0.1, 0, 1); h ~ H(0, 0.5, 1 | 3, 1)'
//! ```
//!
//! Unmentioned inputs stay uniform. For `system` requests the variable
//! names are resolved locally against the `var …;` declarations; for
//! `program` requests the named marginals travel on the wire and the
//! server resolves them against the program's parameters.
//! `--profile-epsilon` tunes the discretization error bound ε.
//!
//! `system` takes the constraint source inline (or `-` to read stdin);
//! `program` takes a MiniJ file path (or `-`). Prints the response as
//! pretty JSON; exits 1 on a server-side error, 2 on usage errors.

use std::io::Read;
use std::process::exit;

use qcoral::Options;
use qcoral_constraints::parse::parse_system;
use qcoral_mc::{parse_profile_spec, Dist, UsageProfile};
use qcoral_repro::pipeline::resolve_profile;
use qcoral_service::{Client, ClientError, NamedDist, RetryPolicy};

fn usage() -> ! {
    eprintln!(
        "usage: qcoralctl --addr HOST:PORT <status|metrics|system SRC|program FILE> \
         [--samples N] [--seed N] [--plain|--strat] [--max-depth N] \
         [--target-stderr X] [--round-budget N] [--max-rounds N] \
         [--allocation equal|proportional|variance|importance] \
         [--paver-boxes N] \
         [--profile 'x ~ N(0,1); y ~ Exp(2)'] [--profile-epsilon X] \
         [--retries N] [--timeout MS] [--trace FILE]"
    );
    exit(2)
}

struct Cli {
    addr: String,
    cmd: String,
    input: Option<String>,
    options: Options,
    max_depth: Option<u64>,
    profile: Option<Vec<(String, Dist)>>,
    retries: u32,
    trace_out: Option<String>,
}

fn parse_cli() -> Cli {
    let mut addr = None;
    let mut cmd = None;
    let mut input = None;
    let mut preset: fn() -> Options = Options::default;
    let mut samples = None;
    let mut seed = None;
    let mut max_depth = None;
    let mut target_stderr = None;
    let mut round_budget = None;
    let mut max_rounds = None;
    let mut allocation = None;
    let mut paver_boxes = None;
    let mut profile = None;
    let mut profile_epsilon = None;
    let mut retries = 0u32;
    let mut timeout_ms = None;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => addr = Some(value()),
            "--samples" => samples = Some(parse(&value())),
            "--seed" => seed = Some(parse(&value())),
            "--max-depth" => max_depth = Some(parse(&value())),
            "--target-stderr" => target_stderr = Some(parse_float(&value())),
            "--round-budget" => round_budget = Some(parse(&value())),
            "--max-rounds" => max_rounds = Some(parse(&value())),
            "--allocation" => allocation = Some(parse_allocation(&value())),
            "--paver-boxes" => paver_boxes = Some(parse(&value()) as usize),
            "--profile" => {
                profile = Some(parse_profile_spec(&value()).unwrap_or_else(|e| {
                    eprintln!("invalid --profile: {e}");
                    usage()
                }))
            }
            "--profile-epsilon" => profile_epsilon = Some(parse_float(&value())),
            "--retries" => retries = parse(&value()) as u32,
            "--timeout" => timeout_ms = Some(parse(&value())),
            "--trace" => trace_out = Some(value()),
            "--plain" => preset = Options::plain,
            "--strat" => preset = Options::strat,
            "--help" | "-h" => usage(),
            other if cmd.is_none() => cmd = Some(other.to_string()),
            other if input.is_none() => input = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument `{other}`");
                usage()
            }
        }
    }
    let (Some(addr), Some(cmd)) = (addr, cmd) else {
        usage()
    };
    // Scalar flags compose onto the preset regardless of flag order.
    let mut options = preset();
    if let Some(samples) = samples {
        options.samples = samples;
    }
    if let Some(seed) = seed {
        options.seed = seed;
    }
    if let Some(target) = target_stderr {
        options.target_stderr = Some(target);
    }
    if let Some(budget) = round_budget {
        options.round_budget = budget;
    }
    if let Some(rounds) = max_rounds {
        options.max_rounds = rounds;
    }
    if let Some(allocation) = allocation {
        options.allocation = allocation;
    }
    if let Some(boxes) = paver_boxes {
        options.paver.max_boxes = boxes;
    }
    if let Some(eps) = profile_epsilon {
        options.profile_epsilon = eps;
    }
    if let Some(ms) = timeout_ms {
        options.deadline_ms = Some(ms);
    }
    options.trace = trace_out.is_some();
    Cli {
        addr,
        cmd,
        input,
        options,
        max_depth,
        profile,
        retries,
        trace_out,
    }
}

/// Writes the response's trace as Chrome trace-event JSON. Exits 1 when
/// the user asked for a trace but the server answered without one.
fn write_trace(path: &str, response: &qcoral_service::AnalysisResponse) {
    let Some(trace) = &response.report.trace else {
        eprintln!("server returned no trace (check its protocol version)");
        exit(1)
    };
    if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
        eprintln!("writing {path}: {e}");
        exit(1)
    }
}

/// Resolves the `--profile` names for a `system` request against the
/// `var …;` declarations of the source (the server expects a positional
/// profile there), so name typos and domain-incompatible distributions
/// fail client-side. Shares `pipeline::resolve_profile` with the
/// server's `program` path.
fn system_profile(source: &str, named: &[(String, Dist)]) -> UsageProfile {
    let sys = parse_system(source).unwrap_or_else(|e| {
        eprintln!("cannot resolve --profile names, source does not parse: {e}");
        exit(1)
    });
    resolve_profile(&sys.domain, named).unwrap_or_else(|e| {
        eprintln!("invalid --profile: {e}");
        exit(1)
    })
}

fn parse_allocation(s: &str) -> qcoral_mc::Allocation {
    use qcoral_mc::Allocation::*;
    match s {
        "equal" => EqualPerStratum,
        "proportional" => Proportional,
        "variance" => VarianceAdaptive,
        "importance" => ImportanceAdaptive,
        other => {
            eprintln!(
                "unknown allocation `{other}` (expected equal|proportional|variance|importance)"
            );
            usage()
        }
    }
}

fn parse(s: &str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("expected a number, got `{s}`");
        usage()
    })
}

fn parse_float(s: &str) -> f64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("expected a number, got `{s}`");
        usage()
    })
}

fn read_input(spec: &str, as_file: bool) -> String {
    if spec == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .unwrap_or_else(|e| {
                eprintln!("reading stdin: {e}");
                exit(1)
            });
        buf
    } else if as_file {
        std::fs::read_to_string(spec).unwrap_or_else(|e| {
            eprintln!("reading {spec}: {e}");
            exit(1)
        })
    } else {
        spec.to_string()
    }
}

fn main() {
    let cli = parse_cli();
    let policy = RetryPolicy::with_retries(cli.retries);
    let mut client = Client::connect_with(&cli.addr, policy).unwrap_or_else(|e| {
        eprintln!("connecting to {}: {e}", cli.addr);
        exit(1)
    });
    let result = match cli.cmd.as_str() {
        "status" => client
            .status()
            .map(|s| serde_json::to_string_pretty(&s).expect("status serializes")),
        "metrics" => client.metrics().map(|m| m.text.trim_end().to_string()),
        "system" => {
            let src = read_input(cli.input.as_deref().unwrap_or_else(|| usage()), false);
            let profile = cli.profile.as_deref().map(|n| system_profile(&src, n));
            client.analyze_system(&src, cli.options, profile).map(|r| {
                if let Some(path) = &cli.trace_out {
                    write_trace(path, &r);
                }
                serde_json::to_string_pretty(&r).expect("report serializes")
            })
        }
        "program" => {
            let src = read_input(cli.input.as_deref().unwrap_or_else(|| usage()), true);
            let profile = cli.profile.map(|named| {
                named
                    .into_iter()
                    .map(|(var, dist)| NamedDist { var, dist })
                    .collect()
            });
            client
                .analyze_program(&src, cli.options, cli.max_depth, profile)
                .map(|r| {
                    if let Some(path) = &cli.trace_out {
                        write_trace(path, &r);
                    }
                    serde_json::to_string_pretty(&r).expect("report serializes")
                })
        }
        other => {
            eprintln!("unknown command `{other}`");
            usage()
        }
    };
    match result {
        Ok(json) => {
            // A downstream that stops reading (`qcoralctl … | grep -q`)
            // closes the pipe; that is not an error worth reporting.
            use std::io::Write;
            if let Err(e) = writeln!(std::io::stdout(), "{json}") {
                if e.kind() != std::io::ErrorKind::BrokenPipe {
                    eprintln!("writing output: {e}");
                    exit(1)
                }
            }
        }
        Err(ClientError::Remote(m)) => {
            eprintln!("server error: {m}");
            exit(1)
        }
        Err(e) => {
            eprintln!("{e}");
            exit(1)
        }
    }
}
