//! Seeded request generation.
//!
//! The program under test receives only the generated requests; every
//! choice below derives from the workload seed and the request index, so
//! one seed always yields the same request stream, whichever client
//! thread happens to send a given index.

use qcoral::{Allocation, Options};
use qcoral_mc::{Dist, UsageProfile};
use qcoral_service::NamedDist;
use qcoral_subjects::{nonuniform_subjects, rare_subjects, table3_subjects};
use qcoral_symexec::SymConfig;

/// Samples per factor on the Table 3 workloads.
const PROGRAM_SAMPLES: u64 = 20_000;
/// Paver budget of the rare-event recipe (the fine paving the
/// importance-sampling proposal is seeded from).
const RARE_PAVER_BOXES: usize = 128;
/// `rare_iterative` asks for a standard error of this share of each
/// subject's closed-form probability.
const RARE_REL_TARGET: f64 = 0.005;
/// Largest absolute widening of a rare subject's domain bound. The
/// subjects bound the truth's sensitivity to their domains at relative
/// ~1e-10, so the closed form stays the reference.
const RARE_MAX_WIDENING: f64 = 1e-6;
/// Largest relative perturbation of a program literal (of the
/// parameter's width, or of the assertion constant).
const PROGRAM_MAX_PERTURBATION: f64 = 1e-7;

/// splitmix64: the benchmark's only source of randomness.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` keyed by `(seed, index, salt)`.
fn unit(seed: u64, index: u64, salt: u64) -> f64 {
    let z = mix(mix(mix(seed) ^ index) ^ salt);
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Which variant request `index` uses: the stream walks the variants in
/// cycles, each cycle in a fresh seeded order. Every variant is drawn
/// equally often, so the mix does not drift between seeds.
fn pick(seed: u64, index: u64, n: usize) -> usize {
    let cycle = index / n as u64;
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(mix(seed ^ 0xC7C1E) ^ cycle ^ ((i as u64) << 32)) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order[(index % n as u64) as usize]
}

/// One request's operation, as sent through `qcoral_service::Client`.
#[derive(Clone, Debug)]
pub enum Payload {
    /// `Client::analyze_program`.
    Program {
        source: String,
        profile: Option<Vec<NamedDist>>,
    },
    /// `Client::analyze_system`.
    System {
        source: String,
        profile: UsageProfile,
    },
}

/// A generated request plus what the benchmark checks its answer against.
#[derive(Clone, Debug)]
pub struct Request {
    /// Index of the variant in the workload's pool.
    pub variant: usize,
    pub payload: Payload,
    pub options: Options,
    /// Closed-form probability (rare subjects only).
    pub truth: Option<f64>,
}

/// A Table 3 (subject, assertion) pair, optionally under one of the
/// non-uniform profiles.
#[derive(Clone, Debug)]
pub struct ProgramVariant {
    pub label: String,
    pub source: String,
    pub profile: Option<Vec<NamedDist>>,
}

/// Every (subject, assertion) pair of Table 3 under the uniform profile,
/// then each non-uniform subject under its named profile.
pub fn program_variants() -> Vec<ProgramVariant> {
    let subjects = table3_subjects();
    let mut out = Vec::new();
    for s in &subjects {
        for (i, (label, _)) in s.assertions.iter().enumerate() {
            out.push(ProgramVariant {
                label: format!("{} · {label}", s.name),
                source: s.source_for(i),
                profile: None,
            });
        }
    }
    for nu in nonuniform_subjects() {
        let base = subjects
            .iter()
            .find(|s| s.name == nu.base)
            .expect("non-uniform subjects name a Table 3 subject");
        // The profiles address parameters by name on the wire.
        let (domain, _, profile) = nu.system(&SymConfig::default());
        let named = domain
            .iter()
            .filter(|(id, _)| *profile.dist(id.index()) != Dist::Uniform)
            .map(|(id, _)| NamedDist {
                var: domain.name(id).to_string(),
                dist: profile.dist(id.index()).clone(),
            })
            .collect();
        out.push(ProgramVariant {
            label: nu.name.to_string(),
            source: base.source_for(nu.assertion),
            profile: Some(named),
        });
    }
    out
}

/// A rare subject: constraint system, profile and closed-form truth.
#[derive(Clone, Debug)]
pub struct RareVariant {
    pub label: String,
    pub source: String,
    pub profile: UsageProfile,
    pub truth: f64,
}

/// The five rare-event subjects.
pub fn rare_variants() -> Vec<RareVariant> {
    rare_subjects()
        .iter()
        .filter(|s| s.name != "sum-tail-3d")
        .map(|s| {
            let (_, _, profile) = s.system();
            RareVariant {
                label: s.name.to_string(),
                source: s.source.to_string(),
                profile,
                truth: s.truth(),
            }
        })
        .collect()
}

/// The options every program request carries. `parallel` stays `false`:
/// under parallel fan-out, subjects whose path conditions share a factor
/// can pave and sample it twice depending on the thread schedule, so the
/// per-request counters (and the count metrics built on them) would not
/// repeat across runs.
fn program_options(trace: bool) -> Options {
    Options::default()
        .with_samples(PROGRAM_SAMPLES)
        .with_parallel(false)
        .with_trace(trace)
}

/// The rare-event recipe: importance-adaptive allocation over a fine
/// paving, iterating to a target set relative to the closed form.
fn rare_options(truth: f64, trace: bool) -> Options {
    let mut opts = Options::default()
        .with_allocation(Allocation::ImportanceAdaptive)
        .with_target_stderr(RARE_REL_TARGET * truth)
        .with_parallel(false)
        .with_trace(trace);
    opts.paver.max_boxes = RARE_PAVER_BOXES;
    opts
}

/// Rewrites the upper bound of each `in [lo, hi]` declaration for which
/// `widen(k, lo, hi)` returns a new value (`k` counts declarations).
fn rewrite_upper_bounds(
    source: &str,
    mut widen: impl FnMut(usize, f64, f64) -> Option<f64>,
) -> String {
    let mut out = String::with_capacity(source.len() + 64);
    let mut rest = source;
    let mut k = 0;
    while let Some(at) = rest.find("in [") {
        let open = at + "in [".len();
        let close = open + rest[open..].find(']').expect("declaration closes");
        let decl = &rest[open..close];
        let (lo_text, hi_text) = decl.split_once(',').expect("declaration has two bounds");
        let lo: f64 = lo_text.trim().parse().expect("numeric lower bound");
        let hi: f64 = hi_text.trim().parse().expect("numeric upper bound");
        out.push_str(&rest[..open]);
        match widen(k, lo, hi) {
            Some(new_hi) => out.push_str(&format!("{lo_text}, {new_hi}")),
            None => out.push_str(decl),
        }
        rest = &rest[close..];
        k += 1;
    }
    out.push_str(rest);
    out
}

/// Nudges every numeric literal the final `check(...)` compares against
/// away from the satisfied side (`>=`/`<` down, `>`/`<=` up), so integer
/// outputs keep their truth values while the constraint text changes.
fn perturb_assertion(source: &str, seed: u64, index: u64) -> String {
    let start = source.rfind("check(").expect("program has a check");
    let (head, check) = source.split_at(start);
    let mut out = String::from(head);
    let bytes = check.as_bytes();
    let mut i = 0;
    let mut salt = 1000;
    while i < bytes.len() {
        let op = [">=", "<=", ">", "<"]
            .into_iter()
            .find(|op| check[i..].starts_with(op));
        let Some(op) = op else {
            out.push(bytes[i] as char);
            i += 1;
            continue;
        };
        out.push_str(op);
        i += op.len();
        let num_start = i + check[i..].len() - check[i..].trim_start().len();
        let mut j = num_start;
        if bytes.get(j) == Some(&b'-') {
            j += 1;
        }
        while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'.') {
            j += 1;
        }
        if let Ok(c) = check[num_start..j].parse::<f64>() {
            let eps =
                c.abs().max(1.0) * PROGRAM_MAX_PERTURBATION * (0.5 + 0.5 * unit(seed, index, salt));
            let moved = if op == ">=" || op == "<" {
                c - eps
            } else {
                c + eps
            };
            out.push(' ');
            out.push_str(&moved.to_string());
            i = j;
        }
        salt += 1;
    }
    out
}

/// Request `index` of `cold_sweep`: a Table 3 variant made structurally
/// new. Every parameter's upper bound grows by a seeded sliver (so every
/// factor's domain box, hence its paving-cache and factor-store key, is
/// new) and the assertion constants move by a seeded ≤1e-7 relative step
/// (so the constraints themselves, hence the compiled-tape keys, change).
pub fn cold_request(pool: &[ProgramVariant], seed: u64, index: u64, trace: bool) -> Request {
    let variant = pick(seed, index, pool.len());
    let v = &pool[variant];
    let source = rewrite_upper_bounds(&v.source, |k, lo, hi| {
        let u = unit(seed, index, k as u64);
        Some(hi + (hi - lo) * PROGRAM_MAX_PERTURBATION * (0.5 + 0.5 * u))
    });
    Request {
        variant,
        payload: Payload::Program {
            source: perturb_assertion(&source, seed, index),
            profile: v.profile.clone(),
        },
        options: program_options(trace),
        truth: None,
    }
}

/// Variant `variant` of the Table 3 pool, unperturbed.
pub fn program_request(pool: &[ProgramVariant], variant: usize, trace: bool) -> Request {
    let v = &pool[variant];
    Request {
        variant,
        payload: Payload::Program {
            source: v.source.clone(),
            profile: v.profile.clone(),
        },
        options: program_options(trace),
        truth: None,
    }
}

/// Request `index` of `warm_replay`: a Table 3 variant exactly as
/// set-up sent it.
pub fn warm_request(pool: &[ProgramVariant], seed: u64, index: u64, trace: bool) -> Request {
    program_request(pool, pick(seed, index, pool.len()), trace)
}

/// Request `index` of `rare_iterative`: a rare subject with one seeded
/// variable's upper bound widened by at most 1e-6.
pub fn rare_request(pool: &[RareVariant], seed: u64, index: u64, trace: bool) -> Request {
    let variant = pick(seed, index, pool.len());
    let v = &pool[variant];
    let target = (mix(seed ^ index.rotate_left(17)) % v.profile.len() as u64) as usize;
    let delta = RARE_MAX_WIDENING * (0.5 + 0.5 * unit(seed, index, 7));
    let source = rewrite_upper_bounds(&v.source, |k, _, hi| (k == target).then_some(hi + delta));
    system_request(pool, variant, source, trace)
}

/// Rare subject `variant` on its declared domain, which no
/// `rare_request` uses (they all widen a bound): set-up pre-warms with it.
pub fn rare_base_request(pool: &[RareVariant], variant: usize, trace: bool) -> Request {
    system_request(pool, variant, pool[variant].source.clone(), trace)
}

fn system_request(pool: &[RareVariant], variant: usize, source: String, trace: bool) -> Request {
    let v = &pool[variant];
    Request {
        variant,
        payload: Payload::System {
            source,
            profile: v.profile.clone(),
        },
        options: rare_options(v.truth, trace),
        truth: Some(v.truth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcoral_constraints::parse::parse_system;

    #[test]
    fn pick_visits_every_variant_once_per_cycle() {
        let mut seen: Vec<usize> = (0..26).map(|i| pick(9, 26 + i, 26)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..26).collect::<Vec<_>>());
    }

    #[test]
    fn perturbations_keep_sources_parseable_and_distinct() {
        let pool = program_variants();
        let a = cold_request(&pool, 1, 0, false);
        let b = cold_request(&pool, 1, pool.len() as u64, false);
        let (Payload::Program { source: sa, .. }, Payload::Program { source: sb, .. }) =
            (&a.payload, &b.payload)
        else {
            panic!("program payloads");
        };
        qcoral_symexec::parse_program(sa).expect("perturbed source parses");
        assert_ne!(sa, sb);
        let rare = rare_variants();
        let r = rare_request(&rare, 3, 4, false);
        let Payload::System { source, .. } = &r.payload else {
            panic!("system payload");
        };
        parse_system(source).expect("widened system parses");
    }

    #[test]
    fn assertion_literals_move_away_from_the_satisfied_side() {
        let out = perturb_assertion("x;\n  check(count >= 5 && tmp <= -5);\n}", 1, 1);
        assert!(out.contains(">= 4.99999"), "{out}");
        assert!(out.contains("<= -4.99999"), "{out}");
    }
}
