//! Property tests on the protocol codec: every request and reply —
//! the full nested error taxonomy included — must survive
//! encode → decode → re-encode with byte-identical output, and no
//! truncation or corruption of a payload may ever panic the decoder.
//!
//! Byte-level (rather than structural) equality is the property that
//! matters: it is what makes over-the-wire reports bit-identical to
//! in-process ones, NaN payloads and signed zeros included, and it
//! holds even for values `PartialEq` would reject (`NaN != NaN`).

use crowd_core::{EstimateError, WorkerAssessment, WorkerReport};
use crowd_data::{DataError, Label, Response, TaskId, WorkerId};
use crowd_obs::{Event, EventKind, HistogramSnapshot};
use crowd_service::{
    BatchHistogram, IngestReceipt, ServiceError, ServiceMetrics, ServiceStats, ShardStats,
    StageTimings,
};
use crowd_stats::{ConfidenceInterval, StatsError};
use crowd_wire::frame::WireError;
use crowd_wire::proto::{decode_reply, decode_request, encode_reply, encode_request, opcode};
use crowd_wire::{MetricsReport, OpcodeTimings, Reply, Request};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies (the vendored proptest has no `prop_oneof`; variants are
// chosen by an integer selector over a tuple of candidate fields).

/// Any `f64` bit pattern worth carrying: ordinary values plus the
/// edge cases bit-exactness is about.
fn arb_f64() -> impl Strategy<Value = f64> {
    (0..10usize, -1.0e6..1.0e6).prop_map(|(sel, v)| match sel {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => f64::MIN_POSITIVE / 2.0,
        _ => v,
    })
}

/// Short strings including multi-byte UTF-8.
fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0x20u32..0x24F, 0..12).prop_map(|cs| {
        cs.into_iter()
            .map(|c| char::from_u32(c).unwrap_or('?'))
            .collect()
    })
}

fn arb_stats_error() -> impl Strategy<Value = StatsError> {
    (0..5usize, arb_f64(), 0..3usize, (0..100usize, 0..100usize)).prop_map(
        |(sel, v, what, (a, b))| match sel {
            0 => StatsError::InvalidProbability {
                value: v,
                what: ["confidence", "quantile argument", "success fraction"][what],
            },
            1 => StatsError::NegativeVariance { variance: v },
            2 => StatsError::DimensionMismatch {
                gradient: a,
                covariance: b,
            },
            3 => StatsError::SingularCovariance,
            _ => StatsError::InsufficientData { got: a, need: b },
        },
    )
}

fn arb_estimate_error() -> impl Strategy<Value = EstimateError> {
    (
        0..8usize,
        (0..500u32, 0..500u32, 0..50usize, 0..50usize),
        arb_string(),
        arb_stats_error(),
    )
        .prop_map(|(sel, (w1, w2, got, need), s, st)| match sel {
            0 => EstimateError::InsufficientOverlap {
                a: WorkerId(w1),
                b: WorkerId(w2),
                got,
                need,
            },
            1 => EstimateError::NotEnoughWorkers { got, need },
            2 => EstimateError::NoUsableTriples {
                worker: WorkerId(w1),
            },
            3 => EstimateError::Degenerate { what: s },
            4 => EstimateError::RequiresRegularData,
            5 => EstimateError::Numerical(s),
            6 => EstimateError::UnknownWorker {
                worker: WorkerId(w1),
                n_workers: got,
            },
            _ => EstimateError::Stats(st),
        })
}

fn arb_data_error() -> impl Strategy<Value = DataError> {
    (
        0..4usize,
        (0..16u16, 1..16u16),
        (0..500u32, 0..500u32),
        0..10_000usize,
        arb_string(),
    )
        .prop_map(|(sel, (label, arity), (w, t), line, s)| match sel {
            0 => DataError::LabelOutOfRange { label, arity },
            1 => DataError::DuplicateResponse {
                worker: WorkerId(w),
                task: TaskId(t),
            },
            2 => DataError::Csv { line, reason: s },
            _ => DataError::UnknownId {
                kind: ["worker", "task"][line % 2],
                id: w,
            },
        })
}

fn arb_service_error() -> impl Strategy<Value = ServiceError> {
    (
        0..8usize,
        (0..64usize, 0..10_000usize),
        arb_data_error(),
        arb_estimate_error(),
        arb_string(),
    )
        .prop_map(|(sel, (shard, dropped), d, e, s)| match sel {
            0 => ServiceError::QueueFull { shard, dropped },
            1 => ServiceError::ShuttingDown,
            2 => ServiceError::ShardUnavailable { shard },
            3 => ServiceError::ShardPanicked { shard },
            4 => ServiceError::Data(d),
            5 => ServiceError::Estimate(e),
            6 => ServiceError::Wire(s),
            _ => ServiceError::Io(s),
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (0..500u32, 0..500u32, 0..8u16).prop_map(|(w, t, l)| Response {
        worker: WorkerId(w),
        task: TaskId(t),
        label: Label(l),
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0..9usize,
        proptest::collection::vec(arb_response(), 0..50),
        proptest::collection::vec(0..500u32, 0..20),
        arb_f64(),
        (0..u64::MAX / 2, 1..u64::MAX / 2),
    )
        .prop_map(
            |(sel, batch, workers, confidence, (session, seq))| match sel {
                0 => Request::IngestBatch(batch),
                1 => Request::AssessWorker {
                    worker: WorkerId(workers.first().copied().unwrap_or(7)),
                    confidence,
                },
                2 => Request::AssessWorkers {
                    workers: workers.into_iter().map(WorkerId).collect(),
                    confidence,
                },
                3 => Request::Snapshot { confidence },
                4 => Request::Drain,
                5 => Request::Stats,
                6 => Request::Shutdown,
                7 => Request::IngestBatchSeq {
                    session,
                    seq,
                    batch,
                },
                _ => Request::Metrics,
            },
        )
}

fn arb_assessment() -> impl Strategy<Value = WorkerAssessment> {
    (
        0..500u32,
        (arb_f64(), arb_f64(), arb_f64()),
        0..100_000usize,
        any::<bool>(),
    )
        .prop_map(
            |(w, (center, half_width, confidence), triples, fb)| WorkerAssessment {
                worker: WorkerId(w),
                interval: ConfidenceInterval {
                    center,
                    half_width,
                    confidence,
                },
                triples_used: triples,
                weights_fell_back: fb,
            },
        )
}

fn arb_report() -> impl Strategy<Value = WorkerReport> {
    (
        proptest::collection::vec(arb_assessment(), 0..10),
        proptest::collection::vec((0..500u32, arb_estimate_error()), 0..6),
    )
        .prop_map(|(assessments, failures)| WorkerReport {
            assessments,
            failures: failures
                .into_iter()
                .map(|(w, e)| (WorkerId(w), e))
                .collect(),
        })
}

fn arb_shard_stats() -> impl Strategy<Value = ShardStats> {
    proptest::collection::vec(0..u64::MAX / 2, 15).prop_map(|v| ShardStats {
        shard: v[0] as usize % 64,
        batches: v[1],
        responses: v[2],
        rejected: v[3],
        assess_requests: v[4],
        reanchors: v[5] as usize,
        gram_patches: v[6] as usize,
        gram_rebuilds: v[7] as usize,
        queue_high_water: v[8] as usize,
        cache_hits: v[9],
        cache_misses: v[10],
        cache_full_refreshes: v[11],
        recoveries: v[12],
        checkpoints: v[13],
        wal_replayed: v[14],
    })
}

fn arb_service_stats() -> impl Strategy<Value = ServiceStats> {
    (
        proptest::collection::vec(arb_shard_stats(), 0..6),
        proptest::collection::vec(0..1_000_000u64, 12),
        (0..1_000_000u64, 0..1_000u64, 0..1_000u64),
    )
        .prop_map(|(shards, buckets, (submitted, db, dr))| {
            let mut counts = [0u64; BatchHistogram::BUCKETS];
            counts.copy_from_slice(&buckets);
            ServiceStats {
                shards,
                submitted,
                dropped_batches: db,
                dropped_responses: dr,
                batch_sizes: BatchHistogram::from_counts(counts),
            }
        })
}

/// Arbitrary histogram snapshots. The wire carries count/sum/max and
/// the buckets verbatim, so they need no mutual consistency here —
/// byte identity is the property, not statistics.
fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        proptest::collection::vec(0..u64::MAX / 2, crowd_obs::BUCKETS),
        (0..u64::MAX / 2, 0..u64::MAX / 2, 0..u64::MAX / 2),
    )
        .prop_map(|(b, (count, sum, max))| {
            let mut buckets = [0u64; crowd_obs::BUCKETS];
            buckets.copy_from_slice(&b);
            HistogramSnapshot::from_parts(buckets, count, sum, max)
        })
}

fn arb_stage_timings() -> impl Strategy<Value = StageTimings> {
    (arb_histogram(), arb_histogram(), arb_histogram()).prop_map(|(q, ba, de)| StageTimings {
        queue_wait: q,
        batch_apply: ba,
        drain_eval: de,
    })
}

/// Journal events with every kind tag and multi-byte UTF-8 labels.
fn arb_event() -> impl Strategy<Value = Event> {
    (
        (0..u64::MAX / 2, 0..u64::MAX / 2),
        0..8u16,
        (0..500u32, any::<bool>()),
        (0..u64::MAX / 2, 0..u64::MAX / 2),
        arb_string(),
    )
        .prop_map(|((seq, ts), kind, (shard, fleet), (a, b), label)| Event {
            seq,
            timestamp_ns: ts,
            kind: EventKind::from_u8(kind as u8).expect("all kind tags covered"),
            shard: if fleet { crowd_obs::NO_SHARD } else { shard },
            a,
            b,
            label,
        })
}

fn arb_metrics_report() -> impl Strategy<Value = MetricsReport> {
    (
        (any::<bool>(), 0..1_000u64),
        arb_service_stats(),
        proptest::collection::vec(arb_stage_timings(), 0..3),
        proptest::collection::vec(arb_event(), 0..5),
        proptest::collection::vec((0..16u16, arb_stage_timings()), 0..3),
    )
        .prop_map(
            |((enabled, dropped), stats, stages, events, server)| MetricsReport {
                service: ServiceMetrics {
                    enabled,
                    stats,
                    stages,
                    events,
                    events_dropped: dropped,
                },
                server: server
                    .into_iter()
                    .map(|(op, t)| OpcodeTimings {
                        opcode: op as u8,
                        decode: t.queue_wait,
                        handle: t.batch_apply,
                        write: t.drain_eval,
                    })
                    .collect(),
            },
        )
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    (
        0..7usize,
        (0..100_000usize, 0..100usize, 0..100usize),
        arb_assessment(),
        (arb_report(), arb_service_stats(), arb_service_error()),
        arb_metrics_report(),
    )
        .prop_map(
            |(sel, (routed, sb, sr), a, (report, stats, err), metrics)| match sel {
                0 => Reply::Ingest(IngestReceipt {
                    routed,
                    shed_batches: sb,
                    shed_responses: sr,
                }),
                1 => Reply::Assessment(a),
                2 => Reply::Report(report),
                3 => Reply::Unit,
                4 => Reply::Stats(stats),
                5 => Reply::Metrics(metrics),
                _ => Reply::Err(err),
            },
        )
}

// ---------------------------------------------------------------------------
// Properties.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_roundtrip_byte_identically(req in arb_request()) {
        let (op, payload) = encode_request(&req);
        let decoded = decode_request(op, &payload).expect("encoder output must decode");
        let (op2, payload2) = encode_request(&decoded);
        prop_assert_eq!(op, op2);
        prop_assert_eq!(payload, payload2);
    }

    #[test]
    fn replies_roundtrip_byte_identically(reply in arb_reply()) {
        let (op, payload) = encode_reply(&reply);
        let decoded = decode_reply(op, &payload).expect("encoder output must decode");
        let (op2, payload2) = encode_reply(&decoded);
        prop_assert_eq!(op, op2);
        prop_assert_eq!(payload, payload2);
    }

    #[test]
    fn truncated_request_payloads_are_typed_errors(req in arb_request(), frac in 0.0..1.0f64) {
        let (op, payload) = encode_request(&req);
        prop_assume!(!payload.is_empty());
        let cut = ((payload.len() as f64) * frac) as usize;
        let r = decode_request(op, &payload[..cut.min(payload.len() - 1)]);
        prop_assert!(r.is_err(), "strict prefix decoded: {r:?}");
    }

    #[test]
    fn truncated_reply_payloads_are_typed_errors(reply in arb_reply(), frac in 0.0..1.0f64) {
        let (op, payload) = encode_reply(&reply);
        prop_assume!(!payload.is_empty());
        let cut = ((payload.len() as f64) * frac) as usize;
        let r = decode_reply(op, &payload[..cut.min(payload.len() - 1)]);
        prop_assert!(r.is_err(), "strict prefix decoded: {r:?}");
    }

    #[test]
    fn corrupted_bytes_never_panic_the_decoder(
        op in 0..=255u32,
        bytes in proptest::collection::vec(0..=255u32, 0..200),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        // Outcome irrelevant; the property is "returns instead of
        // panicking" on arbitrary input.
        let _ = decode_request(op as u8, &bytes);
        let _ = decode_reply(op as u8, &bytes);
    }

    #[test]
    fn trailing_bytes_are_rejected(req in arb_request(), extra in 1..16usize) {
        let (op, mut payload) = encode_request(&req);
        payload.extend(std::iter::repeat_n(0u8, extra));
        let r = decode_request(op, &payload);
        // Most grammars report the exact overhang; variable-length
        // ones may diagnose it as malformation mid-payload instead.
        prop_assert!(r.is_err(), "oversharing payload decoded: {r:?}");
    }
}

// ---------------------------------------------------------------------------
// Targeted cases the properties subsume but the reader should see.

#[test]
fn unknown_opcodes_are_rejected_by_both_decoders() {
    assert_eq!(
        decode_request(0x7f, &[]),
        Err(WireError::UnknownOpcode(0x7f))
    );
    assert!(matches!(
        decode_reply(0x02, &[]),
        Err(WireError::UnknownOpcode(0x02))
    ));
}

#[test]
fn the_full_error_taxonomy_roundtrips_structurally() {
    let cases = vec![
        ServiceError::QueueFull {
            shard: 3,
            dropped: 41,
        },
        ServiceError::ShuttingDown,
        ServiceError::ShardUnavailable { shard: 7 },
        ServiceError::ShardPanicked { shard: 2 },
        ServiceError::Data(DataError::UnknownId {
            kind: "worker",
            id: 999,
        }),
        ServiceError::Estimate(EstimateError::Stats(StatsError::InvalidProbability {
            value: 1.5,
            what: "confidence",
        })),
        ServiceError::Wire("truncated frame: needed 8 bytes, got 3".into()),
        ServiceError::Io("connection reset by peer".into()),
    ];
    for e in cases {
        let (op, payload) = encode_reply(&Reply::Err(e.clone()));
        assert_eq!(op, opcode::ERR);
        match decode_reply(op, &payload).unwrap() {
            Reply::Err(back) => assert_eq!(back, e),
            other => panic!("expected an error reply, got {other:?}"),
        }
    }
}

#[test]
fn unknown_static_str_diagnostics_fall_back_documentedly() {
    // A hand-built frame claiming an id kind this workspace never
    // produces must decode to the documented fallback, not panic or
    // leak a fabricated 'static reference.
    let mut payload = vec![4u8, 3u8]; // ServiceError::Data, DataError::UnknownId
    payload.extend_from_slice(&7u32.to_le_bytes()); // kind string length
    payload.extend_from_slice(b"gremlin");
    payload.extend_from_slice(&42u32.to_le_bytes());
    match decode_reply(opcode::ERR, &payload).unwrap() {
        Reply::Err(ServiceError::Data(DataError::UnknownId { kind, id })) => {
            assert_eq!(kind, "id");
            assert_eq!(id, 42);
        }
        other => panic!("unexpected decode: {other:?}"),
    }
}

#[test]
fn metrics_request_is_an_empty_payload() {
    let (op, payload) = encode_request(&Request::Metrics);
    assert_eq!(op, opcode::METRICS);
    assert!(payload.is_empty());
    assert_eq!(decode_request(op, &payload), Ok(Request::Metrics));
}

#[test]
fn unknown_event_kind_tags_are_typed_errors() {
    // A metrics reply whose journal carries a kind tag this build
    // does not know must decode to a typed error, not a panic and not
    // a fabricated kind.
    let reply = Reply::Metrics(MetricsReport {
        service: ServiceMetrics {
            enabled: true,
            stats: ServiceStats::default(),
            stages: vec![],
            events: vec![Event {
                seq: 0,
                timestamp_ns: 1,
                kind: EventKind::SlowOp,
                shard: 3,
                a: 9,
                b: 2,
                label: "drain_eval".into(),
            }],
            events_dropped: 0,
        },
        server: vec![],
    });
    let (op, mut payload) = encode_reply(&reply);
    assert_eq!(op, opcode::OK_METRICS);
    // Offset of the event's kind byte: enabled + empty stats (shard
    // count + three fleet counters + 12 batch buckets) + stage count
    // + event count + seq + timestamp.
    let kind_at = 1 + (4 + 3 * 8 + BatchHistogram::BUCKETS * 8) + 4 + 4 + 8 + 8;
    assert_eq!(payload[kind_at], EventKind::SlowOp as u8);
    payload[kind_at] = 0xFF;
    assert!(matches!(
        decode_reply(op, &payload),
        Err(WireError::Malformed {
            what: "event kind tag"
        })
    ));
}

#[test]
fn nan_intervals_cross_the_wire_bit_exactly() {
    let quiet = f64::from_bits(0x7ff8_0000_0000_1234);
    let a = WorkerAssessment {
        worker: WorkerId(5),
        interval: ConfidenceInterval {
            center: quiet,
            half_width: -0.0,
            confidence: 0.95,
        },
        triples_used: 12,
        weights_fell_back: false,
    };
    let (op, payload) = encode_reply(&Reply::Assessment(a));
    match decode_reply(op, &payload).unwrap() {
        Reply::Assessment(b) => {
            assert_eq!(b.interval.center.to_bits(), 0x7ff8_0000_0000_1234);
            assert_eq!(b.interval.half_width.to_bits(), (-0.0f64).to_bits());
        }
        other => panic!("unexpected decode: {other:?}"),
    }
}
