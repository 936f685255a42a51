//! Golden wire corpus: one encoded frame per frame type, pinned by
//! length and CRC-32 digest of the whole frame, so a refactor of the
//! codec can prove it still puts the same bytes on the wire.
//!
//! Every frame is built from explicit field values (no defaults that
//! could drift), and each is also checked against an independent
//! bytewise CRC-32 written here: the header checksum must be that CRC
//! over the 14 covered header bytes folded to 16 bits, the payload
//! checksum that CRC over the payload, and the frame must decode back to
//! what was encoded.
//!
//! When the wire format changes on purpose, the protocol version moves
//! and this table is regenerated from the failure message.

use emprof::core::{CalibConfig, Confidence, EmprofConfig, StallEvent, StallKind};
use emprof::obs::{HistogramSnapshot, MeterSnapshot, Snapshot, SpanSnapshot};
use emprof::serve::proto::{self, Hello, Tail, TailEvent, HEADER_LEN, MAGIC, VERSION};
use emprof::serve::{
    ClusterAction, ErrorCode, FlightDumpWire, Frame, HealthWire, MetricsReply, NodeHealthWire,
    QueryResultWire, QueryRowWire, QuerySpecWire, ServerStatsWire, SessionRow, SessionStatsWire,
};

/// CRC-32 (IEEE, reflected), one bit at a time: deliberately sharing
/// nothing with the table-driven kernel the codec uses.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn config() -> EmprofConfig {
    EmprofConfig {
        norm_window_samples: 2_000,
        threshold: 0.5,
        min_duration_cycles: 100.0,
        min_duration_samples: 4,
        merge_gap_samples: 2,
        edge_level: 0.8,
        refresh_min_cycles: 1_500.0,
        calib: CalibConfig {
            enabled: true,
            block_samples: 8_192,
            ewma_weight: 0.25,
            threshold_pad: 0.05,
            threshold_max: 0.75,
            gate_fraction: 0.2,
            degraded_enter: 0.45,
            degraded_exit: 0.3,
            window_min: 500,
            drift_tolerance: 0.1,
        },
    }
}

fn event(start: usize, kind: StallKind, confidence: Confidence) -> StallEvent {
    StallEvent {
        start_sample: start,
        end_sample: start + 37,
        duration_cycles: 925.0,
        kind,
        confidence,
    }
}

fn node(name: &str) -> NodeHealthWire {
    NodeHealthWire {
        name: name.into(),
        addr: "127.0.0.1:7741".into(),
        up: true,
        draining: false,
        sessions_active: 3,
        max_sessions: 256,
        migrations_in: 1,
        migrations_out: 2,
        consecutive_failures: 0,
        uptime_ms: 60_000,
    }
}

fn histogram() -> HistogramSnapshot {
    HistogramSnapshot {
        count: 12,
        sum: 4_800,
        min: Some(100),
        max: Some(900),
        buckets: vec![(64, 127, 4), (128, 255, 8)],
    }
}

fn server_stats() -> ServerStatsWire {
    ServerStatsWire {
        sessions_active: 2,
        frames_in: 40,
        bytes_in: 800_160,
        samples_in: 100_000,
        events_total: 113,
        sheds: 0,
    }
}

/// One frame of every type (both directions of the shared poll types),
/// with its pinned `(length, CRC-32 of the whole frame)`.
fn corpus() -> Vec<(&'static str, Frame, usize, u32)> {
    vec![
        (
            "HELLO",
            Frame::Hello(Hello {
                sample_rate_hz: 40e6,
                clock_hz: 1.008e9,
                config: config(),
                device: "olimex".into(),
                watch: false,
                proxied: true,
                resume_session_id: 7,
                resume_token: 0x0123_4567_89ab_cdef,
            }),
            185,
            0xd819_b110,
        ),
        (
            "HELLO_ACK",
            Frame::HelloAck {
                version: VERSION,
                session_id: 7,
                max_samples_per_frame: proto::MAX_SAMPLES_PER_FRAME,
                resume_token: 0x0123_4567_89ab_cdef,
                acked_seq: 12,
                trace_id: 0xfeed_f00d,
            },
            54,
            0x48f8_8146,
        ),
        (
            "SAMPLES",
            Frame::Samples {
                seq: 13,
                samples: (0..64).map(|i| 5.0 - f64::from(i % 9) * 0.5).collect(),
            },
            540,
            0x2809_911f,
        ),
        ("FLUSH", Frame::Flush, 16, 0x4313_76f8),
        ("FIN", Frame::Fin, 16, 0xe97f_07c3),
        (
            "EVENTS",
            Frame::Events {
                first_seq: 41,
                events: vec![
                    event(1_000, StallKind::Normal, Confidence::High),
                    event(2_000, StallKind::RefreshCollision, Confidence::High),
                    event(3_000, StallKind::Normal, Confidence::Degraded),
                ],
            },
            103,
            0x0d41_c09a,
        ),
        (
            "STATS",
            Frame::Stats(SessionStatsWire {
                samples_pushed: 100_000,
                events_emitted: 43,
                buffered_samples: 1_999,
                queue_depth: 1,
                sheds: 0,
                acked_seq: 13,
                samples_rejected: 2,
                events_degraded: 1,
                final_report: true,
            }),
            80,
            0x9f0b_13a8,
        ),
        (
            "ERROR",
            Frame::Error {
                code: ErrorCode::Checksum,
                message: "payload checksum mismatch".into(),
            },
            45,
            0xc8f9_2eb7,
        ),
        ("WATCH", Frame::Watch { cursor: 99 }, 24, 0x5460_3ffb),
        (
            "TAIL",
            Frame::Tail(Tail {
                cursor: 101,
                missed: 1,
                server: server_stats(),
                events: vec![TailEvent {
                    session_id: 7,
                    event: event(5_000, StallKind::Normal, Confidence::High),
                }],
            }),
            117,
            0x25e1_85da,
        ),
        (
            "HEARTBEAT",
            Frame::Heartbeat { acked_seq: 13 },
            24,
            0xe515_ab8d,
        ),
        ("EVENTS_ACK", Frame::EventsAck { seq: 43 }, 24, 0xf3ff_d12a),
        ("METRICS_REQ", Frame::MetricsRequest, 16, 0x00c6_b45d),
        (
            "METRICS",
            Frame::Metrics(MetricsReply {
                snapshot: Snapshot {
                    counters: vec![("serve.frames_in".into(), 40)],
                    gauges: vec![("serve.queue_depth".into(), 1.5)],
                    meters: vec![(
                        "meter.samples_in".into(),
                        MeterSnapshot {
                            count: 100_000,
                            rate_per_sec: 625_000.0,
                        },
                    )],
                    histograms: vec![("detect.stall_latency_cycles".into(), histogram())],
                    spans: vec![(
                        "serve.drain".into(),
                        SpanSnapshot {
                            count: 40,
                            total_ns: 3_600_000,
                            min_ns: 50_000,
                            max_ns: 200_000,
                        },
                    )],
                },
                server: server_stats(),
                sessions: vec![SessionRow {
                    session_id: 7,
                    trace_id: 0xfeed_f00d,
                    device: "olimex".into(),
                    connected: true,
                    queue_depth: 1,
                    queue_capacity: 64,
                    samples_pushed: 100_000,
                    samples_per_sec: 625_000.0,
                    events_emitted: 43,
                    events_acked: 40,
                    journaled_events: 43,
                    sheds: 0,
                    samples_rejected: 2,
                    events_degraded: 1,
                    idle_ms: 4,
                }],
            }),
            447,
            0xf4fe_f967,
        ),
        ("HEALTH_REQ", Frame::HealthRequest, 16, 0xce7e_74a2),
        (
            "HEALTH",
            Frame::Health(HealthWire {
                healthy: true,
                uptime_ms: 60_000,
                sessions_active: 2,
                max_sessions: 256,
                journal_enabled: true,
            }),
            42,
            0x89d0_3721,
        ),
        (
            "FLIGHT_REQ",
            Frame::FlightRequest { session_id: 7 },
            24,
            0x73fe_74b9,
        ),
        (
            "FLIGHT",
            Frame::FlightReply {
                dumps: vec![FlightDumpWire {
                    session_id: 7,
                    trace_id: 0xfeed_f00d,
                    json: "{\"session\":7,\"entries\":[]}".into(),
                }],
            },
            66,
            0xa42a_62c7,
        ),
        (
            "CLUSTER_JOIN",
            Frame::ClusterJoin {
                name: "b1".into(),
                addr: "127.0.0.1:7742".into(),
                action: ClusterAction::Drain,
            },
            37,
            0xb98e_22d4,
        ),
        (
            "CLUSTER_STATE request",
            Frame::ClusterStateRequest,
            16,
            0xc836_364c,
        ),
        (
            "CLUSTER_STATE reply",
            Frame::ClusterStateReply {
                nodes: vec![node("b0"), node("b1")],
            },
            160,
            0x492c_5fa2,
        ),
        (
            "NODE_HEALTH request",
            Frame::NodeHealthRequest,
            16,
            0x625a_4777,
        ),
        (
            "NODE_HEALTH reply",
            Frame::NodeHealthReply(node("")),
            84,
            0xf8e2_8c22,
        ),
        (
            "QUERY",
            Frame::Query(QuerySpecWire {
                t0: 1_000,
                t1: 2_000_000,
                bucket_samples: 4_096,
                sessions: vec![1, 7, 42],
            }),
            68,
            0x0238_62be,
        ),
        (
            "QUERY_RESULT",
            Frame::QueryResult(QueryResultWire {
                events: 12,
                degraded: 3,
                refresh_collisions: 2,
                latency: histogram(),
                timeline: vec![0, 3, 0, 9],
                sessions: vec![QueryRowWire {
                    session_id: 7,
                    device: "olimex".into(),
                    events: 12,
                    degraded: 3,
                    refresh_collisions: 2,
                }],
                segments_scanned: 5,
                segments_pruned: 11,
                cache_hits: 4,
                cache_misses: 1,
                nodes: 1,
            }),
            246,
            0xffd1_b3e0,
        ),
    ]
}

#[test]
fn every_frame_type_encodes_to_its_pinned_bytes() {
    assert_eq!(VERSION, 6, "a version bump regenerates this corpus");
    let mut types = std::collections::BTreeSet::new();
    let mut mismatches = Vec::new();
    for (name, frame, len, digest) in corpus() {
        let bytes = proto::encode_frame(&frame);
        types.insert(bytes[4]);
        let got = (bytes.len(), crc32_bitwise(&bytes));
        if got != (len, digest) {
            mismatches.push(format!(
                "{name}: pinned ({len}, {digest:#010x}), got ({}, {:#010x})",
                got.0, got.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "wire bytes changed:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(types.len(), 23, "the corpus covers every frame type");
    assert_eq!(
        types.iter().copied().collect::<Vec<u8>>(),
        (1..=23).collect::<Vec<u8>>()
    );
}

#[test]
fn checksums_are_crc32_of_the_covered_bytes() {
    for (name, frame, _, _) in corpus() {
        let bytes = proto::encode_frame(&frame);
        assert_eq!(u16::from_le_bytes([bytes[0], bytes[1]]), MAGIC, "{name}");
        assert_eq!(u16::from_le_bytes([bytes[2], bytes[3]]), VERSION, "{name}");
        let payload = &bytes[HEADER_LEN..];
        let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        assert_eq!(len as usize, payload.len(), "{name}: payload length");
        let payload_sum = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        assert_eq!(
            payload_sum,
            crc32_bitwise(payload),
            "{name}: payload checksum"
        );
        let mut covered = bytes[..6].to_vec();
        covered.extend_from_slice(&bytes[8..HEADER_LEN]);
        let h = crc32_bitwise(&covered);
        let folded = ((h >> 16) ^ (h & 0xffff)) as u16;
        let header_sum = u16::from_le_bytes([bytes[6], bytes[7]]);
        assert_eq!(header_sum, folded, "{name}: header checksum");
        let (decoded, used) = proto::decode_frame(&bytes).expect(name);
        assert_eq!(used, bytes.len(), "{name}");
        assert_eq!(decoded, frame, "{name}: decodes to what was encoded");
    }
}

#[test]
fn borrowed_encoders_match_the_owned_encoding() {
    // The client's slice encoder and the router's renumbering both put
    // the bytes `encode_frame` would.
    let samples: Vec<f64> = (0..2_500).map(|i| 5.0 + f64::from(i).sin()).collect();
    let owned = proto::encode_frame(&Frame::Samples {
        seq: 9,
        samples: samples.clone(),
    });
    assert_eq!(proto::encode_samples_frame(9, &samples), owned);
    let first = proto::encode_samples_frame(1, &samples);
    match proto::decode_frame_view(&first).unwrap().0 {
        proto::FrameView::Samples(v) => assert_eq!(v.encode_with_seq(9), owned),
        proto::FrameView::Owned(_) => panic!("encoded a SAMPLES frame"),
    }
}
