//! Wire-protocol properties: encode→decode is the identity on every
//! request/response shape, and malformed frames are rejected with
//! errors, never panics or desynchronization.

use std::time::Duration;

use proptest::prelude::*;

use qcoral::{Estimate, Options, Report, Stats};
use qcoral_icp::PaverConfig;
use qcoral_mc::{Allocation, Dist, UsageProfile};
use qcoral_service::wire::{
    decode_request, decode_response, encode_request, encode_response, salvage_id,
};
use qcoral_service::{
    AnalysisResponse, FailpointStatus, Op, Outcome, RecoveryReport, Request, Response, ServerStatus,
};

/// Characters that stress JSON escaping: quotes, backslashes, control
/// characters, non-ASCII, and syntax the parser must not trip over.
const PALETTE: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '{', '}', '[', ']', ':', ',', 'é', '😀',
    '\u{7}', ';', '<',
];

fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0..32)
        .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
}

fn arb_options() -> impl Strategy<Value = Options> {
    (
        1u64..1_000_000,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u64..u64::MAX,
        (1usize..64, 0u32..9),
    )
        .prop_map(
            |(samples, stratified, partition, parallel, seed, (boxes, digits))| {
                let mut o = Options::default().with_samples(samples).with_seed(seed);
                o.stratified = stratified;
                o.partition = partition;
                o.cache = partition;
                o.parallel = parallel;
                o.allocation = match samples % 3 {
                    0 => Allocation::EqualPerStratum,
                    1 => Allocation::Proportional,
                    _ => Allocation::ImportanceAdaptive,
                };
                o.paver = PaverConfig {
                    max_boxes: boxes,
                    precision_digits: digits,
                };
                o
            },
        )
}

fn arb_profile() -> impl Strategy<Value = Option<UsageProfile>> {
    (0usize..6, -1.0f64..1.0).prop_map(|(n, skew)| match n {
        0 => None,
        1 => Some(UsageProfile::uniform(2)),
        2 => Some(UsageProfile::uniform(2).with_dist(1, Dist::normal(skew, 0.5 + skew.abs()))),
        3 => Some(UsageProfile::uniform(2).with_dist(0, Dist::exponential(1.0 + skew.abs()))),
        4 => Some(
            UsageProfile::uniform(2).with_dist(1, Dist::truncated_normal(skew, 0.25, -2.0, 2.0)),
        ),
        _ => Some(UsageProfile::uniform(2).with_dist(
            1,
            Dist::piecewise(vec![0.0, 0.5, 1.0], vec![1.0 + skew.abs(), 1.0]),
        )),
    })
}

fn arb_named_profile() -> impl Strategy<Value = Option<Vec<qcoral_service::NamedDist>>> {
    (arb_profile(), arb_string()).prop_map(|(p, name)| {
        p.map(|p| {
            (0..p.len())
                .map(|i| qcoral_service::NamedDist {
                    var: format!("{name}_{i}"),
                    dist: p.dist(i).clone(),
                })
                .collect()
        })
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..3,
        arb_string(),
        arb_options(),
        (arb_profile(), arb_named_profile()),
        0u64..200,
    )
        .prop_map(
            |(kind, source, options, (profile, named), depth)| match kind {
                0 => Op::Status,
                1 => Op::Program {
                    source,
                    options,
                    max_depth: (depth % 2 == 0).then_some(depth),
                    profile: named,
                },
                _ => Op::System {
                    source,
                    options,
                    profile,
                },
            },
        )
}

fn arb_estimate() -> impl Strategy<Value = Estimate> {
    (0.0f64..1.0, 0.0f64..0.1).prop_map(|(mean, variance)| Estimate { mean, variance })
}

fn arb_outcome() -> impl Strategy<Value = Outcome> {
    (
        0u8..3,
        arb_estimate(),
        prop::collection::vec(arb_estimate(), 0..4),
        arb_string(),
        (0u64..999, 0u64..99, 0u64..9_999_999),
    )
        .prop_map(
            |(kind, estimate, per_pc, message, (a, b, nanos))| match kind {
                0 => Outcome::Error { message },
                1 => Outcome::Status(ServerStatus {
                    protocol_version: 1,
                    workers: a,
                    queue_cap: b,
                    max_batch: a % 16,
                    store_entries: b * 3,
                    store_capacity: a + b,
                    store_hits: a,
                    store_misses: b,
                    requests_served: a,
                    requests_rejected: b,
                    requests_shed: b % 7,
                    jobs_panicked: a % 3,
                    batches_dispatched: a / 2,
                    queue_depth: b % 5,
                    inflight: a % 5,
                    backend: if a % 2 == 0 { "bulk" } else { "scalar" }.to_string(),
                    factor_store_recovered: a % 2 == 1,
                    recovery: RecoveryReport {
                        snapshot_loaded: b % 2 == 0,
                        snapshot_entries: a,
                        snapshot_corrupt_entries: b % 3,
                        footer_mismatch: a % 3 == 0,
                        wal_replayed_entries: b,
                        wal_corrupt_entries: a % 4,
                        wal_torn_tail: b % 5 == 0,
                    },
                    wal_append_failures: b % 11,
                    failpoints: (0..a % 3)
                        .map(|i| FailpointStatus {
                            name: format!("{message}.{i}"),
                            evaluations: a + i,
                            fired: i,
                        })
                        .collect(),
                }),
                _ => Outcome::Report(AnalysisResponse {
                    report: Report {
                        estimate,
                        per_pc,
                        stats: Stats {
                            cache_hits: a,
                            cache_misses: b,
                            samples_drawn: a * b,
                            ..Stats::default()
                        },
                        wall: Duration::new(a, (nanos % 1_000_000_000) as u32),
                        trace: None,
                    },
                    bound_mass: (a % 2 == 0).then_some(estimate),
                    confidence: (b % 2 == 0).then_some(0.75),
                    paths: Some(a),
                    cut_paths: Some(b),
                }),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn requests_round_trip(id in 0u64..u64::MAX, op in arb_op()) {
        let request = Request { id, op };
        let frame = encode_request(&request);
        prop_assert!(frame.ends_with('\n'));
        prop_assert_eq!(frame.matches('\n').count(), 1, "one frame, one line");
        let back = decode_request(&frame).expect("round trip decodes");
        prop_assert_eq!(back, request);
    }

    #[test]
    fn responses_round_trip(id in 0u64..u64::MAX, outcome in arb_outcome()) {
        let response = Response { id, outcome };
        let frame = encode_response(&response);
        prop_assert!(frame.ends_with('\n'));
        prop_assert_eq!(frame.matches('\n').count(), 1, "one frame, one line");
        let back = decode_response(&frame).expect("round trip decodes");
        prop_assert_eq!(back, response);
    }

    /// Mutilating a valid frame must produce an error, not a panic.
    #[test]
    fn truncated_frames_error_not_panic(op in arb_op(), cut in 0usize..200) {
        let frame = encode_request(&Request { id: 1, op });
        let mut cut = cut.min(frame.len().saturating_sub(1));
        while !frame.is_char_boundary(cut) {
            cut -= 1;
        }
        let _ = decode_request(&frame[..cut]); // must not panic
    }
}

#[test]
fn malformed_frames_are_rejected() {
    for bad in [
        "",
        "\n",
        "not json\n",
        "{}\n",
        "{\"id\":1}\n",                        // missing op
        "{\"id\":\"x\",\"op\":\"Status\"}\n",  // id not a number
        "{\"id\":1,\"op\":\"Nonsense\"}\n",    // unknown op
        "{\"id\":1,\"op\":\"Health\"}\n",      // retired in v8
        "{\"id\":1,\"op\":{\"System\":{}}}\n", // missing fields
        "[1,2,3]\n",                           // wrong shape
        "{\"id\":1,\"op\":\"Status\"",         // unterminated
    ] {
        assert!(decode_request(bad).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn oversized_frames_are_rejected() {
    let huge = format!(
        "{{\"id\":1,\"op\":{{\"System\":{{\"source\":\"{}\"}}}}}}\n",
        "x".repeat(qcoral_service::wire::MAX_FRAME_BYTES)
    );
    assert!(decode_request(&huge).is_err());
}

#[test]
fn read_frame_reassembles_multibyte_utf8_split_across_chunks() {
    use qcoral_service::wire::{read_frame, FrameRead};
    use std::io::BufReader;
    // A tiny BufReader capacity forces fill_buf boundaries inside the
    // multi-byte characters; the frame must come out intact.
    let frame = "{\"id\":1,\"source\":\"héllo 😀 wörld\"}\nnext";
    for cap in [1, 2, 3, 5] {
        let mut reader = BufReader::with_capacity(cap, std::io::Cursor::new(frame.as_bytes()));
        let mut line = String::new();
        let read = read_frame(&mut reader, &mut line).unwrap();
        assert_eq!(
            line, "{\"id\":1,\"source\":\"héllo 😀 wörld\"}\n",
            "cap {cap}"
        );
        assert_eq!(read, FrameRead::Frame(line.len()));
        // And the stream is positioned after the newline.
        let mut rest = String::new();
        assert_eq!(
            read_frame(&mut reader, &mut rest).unwrap(),
            FrameRead::Frame(4)
        );
        assert_eq!(rest, "next");
        assert_eq!(read_frame(&mut reader, &mut rest).unwrap(), FrameRead::Eof);
    }
}

#[test]
fn read_frame_rejects_invalid_utf8_without_desyncing() {
    use qcoral_service::wire::{read_frame, FrameRead};
    use std::io::BufReader;
    // 0xFF can never appear in UTF-8. The frame must be reported as
    // invalid — not lossily replaced, which would let it parse as JSON
    // with corrupted string content — and the next frame must still
    // decode: the bad line was consumed through its newline.
    let mut stream = b"{\"id\":1,\"source\":\"a\xFFb\"}\n".to_vec();
    stream.extend_from_slice(b"{\"id\":2,\"op\":\"Status\"}\n");
    let mut reader = BufReader::new(std::io::Cursor::new(stream));
    let mut line = String::new();
    assert_eq!(
        read_frame(&mut reader, &mut line).unwrap(),
        FrameRead::NotUtf8
    );
    assert!(line.is_empty(), "no text produced for an invalid frame");
    assert_eq!(
        read_frame(&mut reader, &mut line).unwrap(),
        FrameRead::Frame(line.len())
    );
    let request = decode_request(&line).expect("next frame still decodes");
    assert_eq!(request.id, 2);
}

#[test]
fn salvage_id_recovers_what_it_can() {
    assert_eq!(salvage_id("{\"id\":42,\"op\":\"Nonsense\"}\n"), 42);
    assert_eq!(salvage_id("garbage\n"), 0);
    assert_eq!(salvage_id("{\"op\":\"Status\"}\n"), 0);
}

#[test]
fn unknown_status_fields_do_not_break_decoding() {
    // Forward compatibility: extra fields are ignored, so a newer server
    // can add counters without breaking old clients.
    let line = "{\"id\":7,\"outcome\":{\"Error\":{\"message\":\"m\",\"extra\":[1,2]}}}\n";
    let r = decode_response(line).expect("decodes despite extra field");
    assert_eq!(r.id, 7);
    assert_eq!(
        r.outcome,
        Outcome::Error {
            message: "m".to_string()
        }
    );
}
