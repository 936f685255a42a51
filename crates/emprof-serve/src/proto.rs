//! The EMPROF wire protocol: versioned, length-prefixed, checksummed
//! binary frames (little-endian throughout).
//!
//! A connection carries a sequence of frames in both directions. Every
//! frame starts with a fixed 16-byte header:
//!
//! ```text
//! offset  size  field
//! 0       2     magic            0x454D ("EM")
//! 2       2     protocol version (currently 6)
//! 4       1     frame type       (FrameType)
//! 5       1     flags            (per-type bits)
//! 6       2     header checksum  CRC-32 of the other 14 header bytes,
//!                                folded to 16 bits (high half ^ low half)
//! 8       4     payload length   bounded by MAX_PAYLOAD
//! 12      4     payload checksum CRC-32 of the payload bytes
//! ```
//!
//! Both checksums are CRC-32 (IEEE) computed by the slice-by-16 kernel
//! the journal uses for its records ([`emprof_store::crc32`]), so a
//! frame and the journal record it becomes are checked by the same
//! code. They detect corruption; they do not authenticate.
//!
//! Decoding is fuzz-resistant by construction: the header is validated
//! (magic, version, header checksum, length bound) before a single
//! payload byte is read, payload reads are exact-length, the payload
//! checksum is verified before decoding, and the decoder itself is a
//! bounds-checked cursor that can fail but never panic and never
//! allocates more than the (bounded) payload it was handed.
//!
//! Encoding builds each frame in one buffer: a header placeholder, the
//! payload written straight after it, then the length and both
//! checksums patched into the header in place. [`encode_frame_into`]
//! appends to a caller's buffer, so a multi-frame reply (EVENTS…STATS)
//! goes out in one write.

use std::io::{self, Read, Write};

use emprof_core::{CalibConfig, Confidence, EmprofConfig, StallEvent, StallKind};
use emprof_obs::{HistogramSnapshot, MeterSnapshot, Snapshot, SpanSnapshot};
use emprof_store::{crc32, Crc32};

/// First two header bytes: `b"EM"` read as a little-endian u16.
pub const MAGIC: u16 = u16::from_le_bytes(*b"EM");

/// The protocol version this build speaks. Version 2 added
/// reconnect-and-resume (HELLO resume tokens, SAMPLES sequence numbers,
/// acked-sequence reporting) and server HEARTBEAT frames. Version 3
/// added exactly-once event delivery: EVENTS frames carry the sequence
/// number of their first event and clients acknowledge delivered
/// sequences with EVENTS_ACK. Version 4 added fleet observability:
/// METRICS and HEALTH polls carrying the server's full telemetry
/// snapshot plus per-session rows, FLIGHT polls returning per-session
/// flight-recorder dumps, and a server-assigned trace id in HELLO_ACK.
/// The cluster frames (CLUSTER_JOIN, CLUSTER_STATE, NODE_HEALTH) and the
/// proxied-HELLO flag were added to version 4 *additively*: a peer that
/// never sends them never sees them, so the version number is unchanged.
/// Version 5 widens the event codec with a confidence bit, adds the
/// adaptive-calibration block to the HELLO config, and appends degraded
/// counts to STATS and session METRICS rows — all fixed-layout changes,
/// so the version must move.
/// The journal-query frames (QUERY, QUERY_RESULT) were added to
/// version 5 *additively*, like the cluster frames before them: a peer
/// that never sends a QUERY never sees a QUERY_RESULT, so the version
/// number is unchanged.
/// Version 6 replaces the FNV-1a header and payload checksums with
/// CRC-32. Every frame's checksum bytes change, so the version moves:
/// an older peer is answered with [`ErrorCode::UnsupportedVersion`]
/// instead of failing every frame's checksum.
pub const VERSION: u16 = 6;

/// Fixed frame-header length in bytes.
pub const HEADER_LEN: usize = 16;

/// Upper bound on any frame payload (4 MiB). A header announcing more is
/// rejected before any payload is read.
pub const MAX_PAYLOAD: u32 = 1 << 22;

/// Upper bound on samples per SAMPLES frame (fits `MAX_PAYLOAD` exactly:
/// a 4-byte count plus `2^19` 8-byte magnitudes).
pub const MAX_SAMPLES_PER_FRAME: u32 = 1 << 19;

/// Upper bound on any length-prefixed string in a payload.
const MAX_STRING: usize = 256;

/// Upper bound on events per EVENTS/TAIL frame.
const MAX_EVENTS_PER_FRAME: u32 = 100_000;

/// Upper bound on entries per metric kind in a METRICS snapshot.
pub const MAX_METRICS_ENTRIES: u32 = 4096;

/// Upper bound on buckets per histogram in a METRICS snapshot (a
/// base-2 log histogram over `u64` has at most 65 distinct buckets).
pub const MAX_HISTOGRAM_BUCKETS: u32 = 128;

/// Upper bound on per-session rows in a METRICS reply.
pub const MAX_SESSION_ROWS: u32 = 4096;

/// Upper bound on flight dumps per FLIGHT reply.
pub const MAX_FLIGHT_DUMPS: u32 = 256;

/// Upper bound on one flight-recorder JSON dump (1 MiB).
pub const MAX_FLIGHT_JSON: usize = 1 << 20;

/// Upper bound on nodes per CLUSTER_STATE reply.
pub const MAX_CLUSTER_NODES: u32 = 1024;

/// Upper bound on the session filter in a QUERY frame.
pub const MAX_QUERY_SESSIONS: u32 = 4096;

/// Upper bound on event-rate timeline buckets in a QUERY_RESULT frame
/// (mirrors `emprof_store::MAX_TIMELINE_BUCKETS`).
pub const MAX_QUERY_BUCKETS: u32 = 4096;

/// HELLO flag: this connection only watches the server-wide event tail;
/// no session (and no detector) is created for it.
pub const FLAG_WATCH: u8 = 0b0000_0001;

/// HELLO flag: this session is opened by a router on behalf of a remote
/// client (the proxy-aware HELLO). The backend serves it identically
/// but counts it, so a fleet operator can tell direct from routed load.
pub const FLAG_PROXIED: u8 = 0b0000_0010;

/// STATS flag: this is the final report of a finished session.
pub const FLAG_FINAL: u8 = 0b0000_0001;

/// CLUSTER_STATE / NODE_HEALTH flag: this frame is the poll, not the
/// reply (both directions share one frame type per exchange).
pub const FLAG_REQUEST: u8 = 0b0000_0001;

/// Frame discriminants (header byte 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server: open a session (or a watch subscription).
    Hello = 1,
    /// Server → client: session accepted; carries the negotiated limits.
    HelloAck = 2,
    /// Client → server: a batch of f64 magnitude samples.
    Samples = 3,
    /// Client → server: deliver all events finalized so far.
    Flush = 4,
    /// Client → server: end of capture; finalize and report.
    Fin = 5,
    /// Server → client: finalized stall events.
    Events = 6,
    /// Server → client: per-session progress counters.
    Stats = 7,
    /// Either direction: a fatal protocol or server error.
    Error = 8,
    /// Watch client → server: poll the event tail from a cursor.
    Watch = 9,
    /// Server → watch client: tail events plus server-wide stats.
    Tail = 10,
    /// Server → client: liveness signal while the connection is
    /// otherwise quiet, carrying the session's acked sequence.
    Heartbeat = 11,
    /// Client → server: events up to this sequence were durably
    /// received; the server may advance its delivery cursor.
    EventsAck = 12,
    /// Client → server: poll the server's full telemetry snapshot.
    MetricsRequest = 13,
    /// Server → client: the telemetry snapshot plus per-session rows.
    Metrics = 14,
    /// Client → server: poll a compact liveness summary.
    HealthRequest = 15,
    /// Server → client: the liveness summary.
    Health = 16,
    /// Client → server: request flight-recorder dumps.
    FlightRequest = 17,
    /// Server → client: flight-recorder dumps, one JSON document each.
    FlightReply = 18,
    /// Admin → router (or router → backend): a cluster topology change —
    /// join, leave, or drain a node.
    ClusterJoin = 19,
    /// Either direction: poll ([`FLAG_REQUEST`]) or report the cluster
    /// membership/health table.
    ClusterState = 20,
    /// Either direction: poll ([`FLAG_REQUEST`]) or report one node's
    /// health row. The router's probe loop lives on this frame.
    NodeHealth = 21,
    /// Client → server (or router): evaluate a journal range query.
    Query = 22,
    /// Server → client: the query's statistics.
    QueryResult = 23,
}

impl FrameType {
    fn from_u8(v: u8) -> Option<FrameType> {
        Some(match v {
            1 => FrameType::Hello,
            2 => FrameType::HelloAck,
            3 => FrameType::Samples,
            4 => FrameType::Flush,
            5 => FrameType::Fin,
            6 => FrameType::Events,
            7 => FrameType::Stats,
            8 => FrameType::Error,
            9 => FrameType::Watch,
            10 => FrameType::Tail,
            11 => FrameType::Heartbeat,
            12 => FrameType::EventsAck,
            13 => FrameType::MetricsRequest,
            14 => FrameType::Metrics,
            15 => FrameType::HealthRequest,
            16 => FrameType::Health,
            17 => FrameType::FlightRequest,
            18 => FrameType::FlightReply,
            19 => FrameType::ClusterJoin,
            20 => FrameType::ClusterState,
            21 => FrameType::NodeHealth,
            22 => FrameType::Query,
            23 => FrameType::QueryResult,
            _ => return None,
        })
    }
}

/// Error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The peer speaks a protocol version this side does not.
    UnsupportedVersion = 1,
    /// A frame failed to decode (truncated, bad discriminant, ...).
    Malformed = 2,
    /// A header or payload checksum did not verify.
    Checksum = 3,
    /// A frame exceeded a protocol bound.
    TooLarge = 4,
    /// A frame arrived that is invalid in the current connection state.
    Protocol = 5,
    /// The server is shutting down.
    Shutdown = 6,
    /// The server's session limit is reached.
    SessionLimit = 7,
    /// The session was reaped (idle timeout) or never existed.
    NoSession = 8,
    /// Anything else; see the message.
    Internal = 9,
}

impl ErrorCode {
    fn from_u16(v: u16) -> ErrorCode {
        match v {
            1 => ErrorCode::UnsupportedVersion,
            2 => ErrorCode::Malformed,
            3 => ErrorCode::Checksum,
            4 => ErrorCode::TooLarge,
            5 => ErrorCode::Protocol,
            6 => ErrorCode::Shutdown,
            7 => ErrorCode::SessionLimit,
            8 => ErrorCode::NoSession,
            _ => ErrorCode::Internal,
        }
    }
}

/// The HELLO payload: what the client is about to stream and how the
/// detector should be configured for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// Capture sample rate in Hz.
    pub sample_rate_hz: f64,
    /// Profiled core clock in Hz.
    pub clock_hz: f64,
    /// Full detector configuration (clients default to
    /// [`EmprofConfig::for_rates`]; the server validates it).
    pub config: EmprofConfig,
    /// Free-form device label for logs and the watch tail.
    pub device: String,
    /// Whether this is a watch subscription ([`FLAG_WATCH`]).
    pub watch: bool,
    /// Whether this session is opened by a router on behalf of a remote
    /// client ([`FLAG_PROXIED`]).
    pub proxied: bool,
    /// Non-zero to resume a detached session after a transport loss:
    /// the id the server assigned at the original HELLO.
    pub resume_session_id: u64,
    /// The resume token the server issued for that session; both must
    /// match or the resume is rejected with `NoSession`.
    pub resume_token: u64,
}

/// The STATS payload: a session's progress counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStatsWire {
    /// Samples ingested into the detector so far.
    pub samples_pushed: u64,
    /// Stall events finalized so far.
    pub events_emitted: u64,
    /// Samples currently buffered inside the detector.
    pub buffered_samples: u64,
    /// Current depth of the session's ingest queue, in frames.
    pub queue_depth: u64,
    /// SAMPLES batches dropped by shed mode.
    pub sheds: u64,
    /// Highest SAMPLES sequence number accepted so far (frames the
    /// client no longer needs to retain for replay).
    pub acked_seq: u64,
    /// Non-finite samples rejected at the detector's ingest boundary.
    pub samples_rejected: u64,
    /// Events finalized so far that carry a degraded-confidence mark.
    pub events_degraded: u64,
    /// Whether this is the final report of a finished session.
    pub final_report: bool,
}

/// Server-wide aggregate stats carried in a TAIL reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStatsWire {
    /// Sessions currently registered.
    pub sessions_active: u64,
    /// Total frames ingested since the server started.
    pub frames_in: u64,
    /// Total payload bytes ingested.
    pub bytes_in: u64,
    /// Total magnitude samples ingested.
    pub samples_in: u64,
    /// Total stall events finalized across all sessions.
    pub events_total: u64,
    /// Total batches dropped by shed mode.
    pub sheds: u64,
}

/// One per-session row in a METRICS reply: the live operational state
/// of a registered session, whether or not a connection is attached.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionRow {
    /// Registry id of the session.
    pub session_id: u64,
    /// The trace id the server assigned at HELLO (stamps flight dumps).
    pub trace_id: u64,
    /// Device label from the session's HELLO.
    pub device: String,
    /// Whether a connection is currently attached.
    pub connected: bool,
    /// Frames currently queued for the session's worker.
    pub queue_depth: u64,
    /// The session queue's bound, in frames.
    pub queue_capacity: u64,
    /// Samples ingested into the detector so far.
    pub samples_pushed: u64,
    /// Windowed ingest rate in samples/second.
    pub samples_per_sec: f64,
    /// Stall events finalized so far.
    pub events_emitted: u64,
    /// Highest event sequence the client has acknowledged.
    pub events_acked: u64,
    /// Events durably journaled so far (0 when journaling is off).
    pub journaled_events: u64,
    /// SAMPLES batches dropped by shed mode.
    pub sheds: u64,
    /// Non-finite samples rejected at the ingest boundary.
    pub samples_rejected: u64,
    /// Events emitted with a degraded-confidence mark.
    pub events_degraded: u64,
    /// Milliseconds since the session last saw client activity.
    pub idle_ms: u64,
}

impl SessionRow {
    /// Events finalized but not yet acknowledged by the client — the
    /// session's delivery lag.
    pub fn delivery_lag(&self) -> u64 {
        self.events_emitted.saturating_sub(self.events_acked)
    }
}

/// The METRICS payload: the server's full telemetry snapshot plus
/// server-wide aggregates and one row per registered session.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReply {
    /// The server's process-global `emprof_obs` snapshot, verbatim —
    /// a client that decodes this frame sees exactly what a local
    /// `emprof_obs::snapshot()` call on the server would return.
    pub snapshot: Snapshot,
    /// Server-wide aggregates (same shape TAIL carries).
    pub server: ServerStatsWire,
    /// One row per registered session, ordered by id.
    pub sessions: Vec<SessionRow>,
}

/// The HEALTH payload: a compact liveness summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthWire {
    /// Whether the server considers itself able to accept new sessions.
    pub healthy: bool,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Sessions currently registered.
    pub sessions_active: u64,
    /// The configured session limit.
    pub max_sessions: u64,
    /// Whether event journaling is enabled.
    pub journal_enabled: bool,
}

/// What a CLUSTER_JOIN frame asks the receiving node to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ClusterAction {
    /// Add (or re-add) the named node to the ring.
    Join = 0,
    /// Remove the named node from the ring.
    Leave = 1,
    /// Stop placing new sessions on the node and migrate its existing
    /// sessions away; the node keeps serving until the drain completes.
    Drain = 2,
}

impl ClusterAction {
    fn from_u8(v: u8) -> Option<ClusterAction> {
        Some(match v {
            0 => ClusterAction::Join,
            1 => ClusterAction::Leave,
            2 => ClusterAction::Drain,
            _ => return None,
        })
    }
}

/// One node's row in the cluster membership/health table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeHealthWire {
    /// The node's cluster name (a backend's name on the router; empty
    /// when a backend reports itself — it may not know its own name).
    pub name: String,
    /// The node's listener address as the reporter knows it.
    pub addr: String,
    /// Whether the node is currently marked up (probes succeeding).
    pub up: bool,
    /// Whether the node is draining (no new sessions placed on it).
    pub draining: bool,
    /// Sessions the reporter attributes to this node.
    pub sessions_active: u64,
    /// The node's configured session limit (0 when unknown).
    pub max_sessions: u64,
    /// Sessions migrated *onto* this node so far.
    pub migrations_in: u64,
    /// Sessions migrated *off* this node so far.
    pub migrations_out: u64,
    /// Consecutive failed health probes (0 while the node is up).
    pub consecutive_failures: u64,
    /// Milliseconds since the node (or its router-side tracking) started.
    pub uptime_ms: u64,
}

/// One flight-recorder dump in a FLIGHT reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDumpWire {
    /// The session whose recorder was dumped.
    pub session_id: u64,
    /// The session's trace id (also stamped inside the JSON).
    pub trace_id: u64,
    /// The dump itself: one self-contained JSON document.
    pub json: String,
}

/// The QUERY payload: what to compute, over which sample-index window
/// and session set (mirrors `emprof_store::QuerySpec`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpecWire {
    /// Window start, inclusive, in sample indexes.
    pub t0: u64,
    /// Window end, inclusive (`u64::MAX` for open-ended).
    pub t1: u64,
    /// Event-rate timeline bucket width in samples; 0 disables it.
    pub bucket_samples: u64,
    /// Sessions to include; empty means all.
    pub sessions: Vec<u64>,
}

impl Default for QuerySpecWire {
    fn default() -> Self {
        QuerySpecWire {
            t0: 0,
            t1: u64::MAX,
            bucket_samples: 0,
            sessions: Vec::new(),
        }
    }
}

/// One per-session row in a QUERY_RESULT.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryRowWire {
    /// The session id.
    pub session_id: u64,
    /// Device label from the session's identity checkpoint.
    pub device: String,
    /// In-range events.
    pub events: u64,
    /// Of those, degraded-confidence events.
    pub degraded: u64,
    /// Of those, refresh-collision events.
    pub refresh_collisions: u64,
}

/// The QUERY_RESULT payload. The latency distribution travels as the
/// raw histogram (counts per power-of-two bucket), never as
/// precomputed quantiles: every consumer derives p50/p90/p99 from the
/// same buckets with the same code, which is what keeps remote query
/// results bit-identical to local replay.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryResultWire {
    /// In-range events across all matched sessions.
    pub events: u64,
    /// Of those, degraded-confidence events.
    pub degraded: u64,
    /// Of those, refresh-collision events.
    pub refresh_collisions: u64,
    /// Stall-latency distribution over the in-range events.
    pub latency: HistogramSnapshot,
    /// Event counts per timeline bucket (empty when disabled).
    pub timeline: Vec<u64>,
    /// Per-session rows, ordered by session id.
    pub sessions: Vec<QueryRowWire>,
    /// Segments whose records were folded.
    pub segments_scanned: u64,
    /// Segments skipped by footer pruning.
    pub segments_pruned: u64,
    /// Decoded-segment cache hits.
    pub cache_hits: u64,
    /// Decoded-segment cache misses.
    pub cache_misses: u64,
    /// How many nodes contributed (1 from a backend; the router sums).
    pub nodes: u64,
}

impl QueryResultWire {
    /// Folds another node's result into this one (the router's fan-out
    /// aggregation). Because every node buckets latencies into the same
    /// power-of-two bounds, merging bucket counts then recomputing
    /// quantiles is bit-identical to having run one query over the
    /// union of journals.
    pub fn merge(&mut self, other: &QueryResultWire) {
        self.events += other.events;
        self.degraded += other.degraded;
        self.refresh_collisions += other.refresh_collisions;
        self.latency.count += other.latency.count;
        self.latency.sum = self.latency.sum.wrapping_add(other.latency.sum);
        self.latency.min = match (self.latency.min, other.latency.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.latency.max = match (self.latency.max, other.latency.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        for &(lo, hi, n) in &other.latency.buckets {
            match self.latency.buckets.iter_mut().find(|b| b.0 == lo) {
                Some(b) => b.2 += n,
                None => self.latency.buckets.push((lo, hi, n)),
            }
        }
        self.latency.buckets.sort_by_key(|b| b.0);
        if self.timeline.len() < other.timeline.len() {
            self.timeline.resize(other.timeline.len(), 0);
        }
        for (i, n) in other.timeline.iter().enumerate() {
            self.timeline[i] += n;
        }
        self.sessions.extend(other.sessions.iter().cloned());
        self.sessions.sort_by_key(|r| r.session_id);
        self.segments_scanned += other.segments_scanned;
        self.segments_pruned += other.segments_pruned;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.nodes += other.nodes;
    }
}

/// One finalized event in the watch tail, tagged with its session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailEvent {
    /// The session that produced the event.
    pub session_id: u64,
    /// The event itself.
    pub event: StallEvent,
}

/// The TAIL payload: everything a watch poll gets back.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// Pass this back as the next poll's cursor.
    pub cursor: u64,
    /// How many tail events were evicted before the polled cursor (0
    /// means the tail is gapless from the client's point of view).
    pub missed: u64,
    /// Server-wide aggregates.
    pub server: ServerStatsWire,
    /// Events finalized after the polled cursor.
    pub events: Vec<TailEvent>,
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// See [`Hello`].
    Hello(Hello),
    /// Session accepted.
    HelloAck {
        /// The version the server will speak.
        version: u16,
        /// The registry id of the new session (0 for watch connections).
        session_id: u64,
        /// The largest SAMPLES batch the server will accept.
        max_samples_per_frame: u32,
        /// Token the client presents to resume this session after a
        /// transport loss (0 for watch connections).
        resume_token: u64,
        /// Highest SAMPLES sequence accepted so far — 0 on a fresh
        /// session; on a resume, tells the client where to replay from.
        acked_seq: u64,
        /// Server-assigned trace id: stable across resumes, stamped on
        /// the session's flight-recorder dumps and METRICS rows (0 for
        /// watch connections).
        trace_id: u64,
    },
    /// A batch of magnitude samples, tagged with a per-session sequence
    /// number (1 for the first batch) so a resumed client can replay
    /// unacked frames without the server double-ingesting.
    Samples {
        /// Monotonic per-session batch sequence, starting at 1.
        seq: u64,
        /// The magnitude samples.
        samples: Vec<f64>,
    },
    /// Deliver finalized events now.
    Flush,
    /// End of capture.
    Fin,
    /// Finalized stall events, tagged with the per-session sequence of
    /// the first event so a client can deduplicate redeliveries after a
    /// lost reply or a server restart.
    Events {
        /// Sequence number of `events[0]` (sequences are contiguous
        /// from 1 per session; meaningless when `events` is empty).
        first_seq: u64,
        /// The events, in finalization order.
        events: Vec<StallEvent>,
    },
    /// Session progress counters.
    Stats(SessionStatsWire),
    /// A fatal error; the sender closes after this frame.
    Error {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Poll the event tail from this cursor.
    Watch {
        /// 0 on the first poll, then the cursor from the last TAIL.
        cursor: u64,
    },
    /// Tail events plus server-wide stats.
    Tail(Tail),
    /// Server liveness while quiet; carries the session's acked
    /// sequence (0 on watch connections).
    Heartbeat {
        /// Highest SAMPLES sequence accepted so far.
        acked_seq: u64,
    },
    /// Client acknowledgment of delivered events: every event with a
    /// sequence at or below `seq` has been received.
    EventsAck {
        /// Highest event sequence the client has seen.
        seq: u64,
    },
    /// Poll the server's telemetry snapshot and session rows.
    MetricsRequest,
    /// See [`MetricsReply`].
    Metrics(MetricsReply),
    /// Poll the server's liveness summary.
    HealthRequest,
    /// See [`HealthWire`].
    Health(HealthWire),
    /// Request flight-recorder dumps.
    FlightRequest {
        /// Dump this session only, or every registered session when 0.
        session_id: u64,
    },
    /// Flight-recorder dumps, one JSON document per session.
    FlightReply {
        /// The dumps, ordered by session id.
        dumps: Vec<FlightDumpWire>,
    },
    /// A cluster topology change: join, leave, or drain the named node.
    ClusterJoin {
        /// The node's cluster name.
        name: String,
        /// The node's listener address (empty on a drain sent *to* the
        /// draining node itself).
        addr: String,
        /// What to do with the node.
        action: ClusterAction,
    },
    /// Poll the cluster membership/health table.
    ClusterStateRequest,
    /// The cluster membership/health table, one row per known node.
    ClusterStateReply {
        /// Rows ordered by node name.
        nodes: Vec<NodeHealthWire>,
    },
    /// Poll one node's health row (the router probe).
    NodeHealthRequest,
    /// The polled node's health row.
    NodeHealthReply(NodeHealthWire),
    /// Evaluate a journal range query. See [`QuerySpecWire`].
    Query(QuerySpecWire),
    /// The query's statistics. See [`QueryResultWire`].
    QueryResult(QueryResultWire),
}

/// What went wrong while reading or decoding a frame.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The header did not start with [`MAGIC`].
    BadMagic,
    /// The peer's version is not one this build speaks.
    UnsupportedVersion(u16),
    /// The header checksum did not verify.
    HeaderChecksum,
    /// The payload checksum did not verify.
    PayloadChecksum,
    /// The announced payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The frame type byte is unknown.
    UnknownType(u8),
    /// The payload failed to decode.
    Malformed(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::BadMagic => write!(f, "bad magic (not an EMPROF stream)"),
            ProtoError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (this build speaks {VERSION})")
            }
            ProtoError::HeaderChecksum => write!(f, "header checksum mismatch"),
            ProtoError::PayloadChecksum => write!(f, "payload checksum mismatch"),
            ProtoError::Oversized(n) => {
                write!(f, "payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte bound")
            }
            ProtoError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl ProtoError {
    /// The error code a peer should be told about this failure.
    pub fn error_code(&self) -> ErrorCode {
        match self {
            ProtoError::Io(_) => ErrorCode::Internal,
            ProtoError::BadMagic | ProtoError::UnknownType(_) | ProtoError::Malformed(_) => {
                ErrorCode::Malformed
            }
            ProtoError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
            ProtoError::HeaderChecksum | ProtoError::PayloadChecksum => ErrorCode::Checksum,
            ProtoError::Oversized(_) => ErrorCode::TooLarge,
        }
    }
}

// ---------------------------------------------------------------------
// Checksums: CRC-32 (IEEE) for both fields (integrity, not
// authentication).

/// The header checksum: CRC-32 of the 14 header bytes it covers
/// (everything but the checksum field itself), folded to 16 bits.
fn header_checksum(buf: &[u8; HEADER_LEN]) -> u16 {
    let mut crc = Crc32::new();
    crc.update(&buf[..6]);
    crc.update(&buf[8..]);
    let h = crc.finish();
    ((h >> 16) ^ (h & 0xffff)) as u16
}

// ---------------------------------------------------------------------
// Payload encoding/decoding.

/// Bounds-checked little-endian payload reader. Every accessor fails
/// (rather than panicking) on truncation.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtoError::Malformed("truncated payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u16()? as usize;
        if len > MAX_STRING {
            return Err(ProtoError::Malformed("string too long"));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::Malformed("string not UTF-8"))
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes"))
        }
    }
}

/// A SAMPLES frame decoded zero-copy: the sequence number plus the raw
/// little-endian f64 payload bytes, borrowed straight from the receive
/// buffer. Samples are decoded lazily as they are read, so a frame that
/// is validated but never consumed costs no per-sample work at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplesView<'a> {
    /// Sequence number of this batch (first sample's global index).
    pub seq: u64,
    /// Exactly `len() * 8` bytes of little-endian f64s.
    raw: &'a [u8],
}

impl<'a> SamplesView<'a> {
    /// Number of samples in the frame.
    #[must_use]
    pub fn len(&self) -> usize {
        self.raw.len() / 8
    }

    /// Whether the frame carries no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Iterates the samples, decoding each f64 from the borrowed bytes.
    pub fn iter(&self) -> impl Iterator<Item = f64> + 'a {
        self.raw
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("chunks_exact yields 8 bytes")))
    }

    /// Appends every sample to `out`. Reserves once up front; when `out`
    /// already has the capacity this performs no allocation.
    pub fn copy_into(&self, out: &mut Vec<f64>) {
        out.reserve(self.len());
        out.extend(self.iter());
    }

    /// Encodes these samples as a SAMPLES frame numbered `seq`, copying
    /// the payload bytes as they are (no f64 round trip). This is how a
    /// router renumbers a frame it otherwise forwards verbatim.
    #[must_use]
    pub fn encode_with_seq(&self, seq: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 12 + self.raw.len());
        let start = begin_frame(&mut out);
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&(self.len() as u32).to_le_bytes());
        out.extend_from_slice(self.raw);
        seal_frame(&mut out, start, FrameType::Samples, 0);
        out
    }
}

/// A decoded frame whose SAMPLES payload borrows from the input buffer;
/// every other frame type decodes to its owned [`Frame`] representation.
/// Produced by [`decode_frame_view`].
#[derive(Debug)]
pub enum FrameView<'a> {
    /// A SAMPLES frame, zero-copy.
    Samples(SamplesView<'a>),
    /// Any other frame, decoded owned.
    Owned(Frame),
}

/// Parses and bounds-checks a SAMPLES payload into a [`SamplesView`].
/// Shares validation with the owned decode path: sequence number, sample
/// count against [`MAX_SAMPLES_PER_FRAME`], exact payload length.
fn samples_view(payload: &[u8]) -> Result<SamplesView<'_>, ProtoError> {
    let mut c = Cursor::new(payload);
    let seq = c.u64()?;
    let count = c.u32()?;
    if count > MAX_SAMPLES_PER_FRAME {
        return Err(ProtoError::Malformed("sample count exceeds bound"));
    }
    let raw = c.take(count as usize * 8)?;
    c.done()?;
    Ok(SamplesView { seq, raw })
}

/// A SAMPLES payload: sequence number, count, then the samples as
/// little-endian f64 bits, written straight from the slice.
fn put_samples(out: &mut Vec<u8>, seq: u64, samples: &[f64]) {
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(samples.len() as u32).to_le_bytes());
    let at = out.len();
    out.resize(at + samples.len() * 8, 0);
    for (dst, s) in out[at..].chunks_exact_mut(8).zip(samples) {
        dst.copy_from_slice(&s.to_le_bytes());
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    let s = utf8_prefix(s, MAX_STRING);
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// The longest prefix of `s` that fits in `max` bytes without cutting a
/// character: a long string is sent truncated, never as invalid UTF-8
/// the decoder would reject.
fn utf8_prefix(s: &str, max: usize) -> &str {
    let mut end = s.len().min(max);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Event kind byte: bit 0 is the refresh classification, bit 1 the
/// degraded-confidence mark. Carrying confidence on the wire is what
/// makes replayed and routed sessions agree with a local run.
fn encode_event(out: &mut Vec<u8>, e: &StallEvent) {
    out.extend_from_slice(&(e.start_sample as u64).to_le_bytes());
    out.extend_from_slice(&(e.end_sample as u64).to_le_bytes());
    out.extend_from_slice(&e.duration_cycles.to_le_bytes());
    let mut kind = match e.kind {
        StallKind::Normal => 0,
        StallKind::RefreshCollision => 1,
    };
    if e.confidence == Confidence::Degraded {
        kind |= 2;
    }
    out.push(kind);
}

fn decode_event(c: &mut Cursor<'_>) -> Result<StallEvent, ProtoError> {
    let start_sample = c.u64()? as usize;
    let end_sample = c.u64()? as usize;
    let duration_cycles = c.f64()?;
    let bits = c.u8()?;
    if bits > 3 {
        return Err(ProtoError::Malformed("unknown stall kind"));
    }
    let kind = if bits & 1 != 0 {
        StallKind::RefreshCollision
    } else {
        StallKind::Normal
    };
    let confidence = if bits & 2 != 0 {
        Confidence::Degraded
    } else {
        Confidence::High
    };
    if end_sample < start_sample {
        return Err(ProtoError::Malformed("event ends before it starts"));
    }
    Ok(StallEvent {
        start_sample,
        end_sample,
        duration_cycles,
        kind,
        confidence,
    })
}

fn encode_event_list(out: &mut Vec<u8>, events: &[StallEvent]) {
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for e in events {
        encode_event(out, e);
    }
}

fn decode_event_count(c: &mut Cursor<'_>) -> Result<u32, ProtoError> {
    let count = c.u32()?;
    if count > MAX_EVENTS_PER_FRAME {
        return Err(ProtoError::Malformed("event count exceeds bound"));
    }
    Ok(count)
}

/// Writes a string with a u32 length prefix (flight dumps exceed the
/// 256-byte [`MAX_STRING`] bound of ordinary protocol strings).
fn put_long_string(out: &mut Vec<u8>, s: &str) {
    let s = utf8_prefix(s, MAX_FLIGHT_JSON);
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take_long_string(c: &mut Cursor<'_>) -> Result<String, ProtoError> {
    let len = c.u32()? as usize;
    if len > MAX_FLIGHT_JSON {
        return Err(ProtoError::Malformed("flight dump too long"));
    }
    let bytes = c.take(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::Malformed("string not UTF-8"))
}

fn decode_bounded_count(c: &mut Cursor<'_>, bound: u32, what: &'static str) -> Result<u32, ProtoError> {
    let count = c.u32()?;
    if count > bound {
        return Err(ProtoError::Malformed(what));
    }
    Ok(count)
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        None => out.push(0),
    }
}

fn take_opt_u64(c: &mut Cursor<'_>) -> Result<Option<u64>, ProtoError> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(c.u64()?)),
        _ => Err(ProtoError::Malformed("bad option tag")),
    }
}

/// The one histogram wire shape, shared by METRICS snapshots and
/// QUERY_RESULT latency distributions.
fn encode_histogram_wire(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    out.extend_from_slice(&h.count.to_le_bytes());
    out.extend_from_slice(&h.sum.to_le_bytes());
    put_opt_u64(out, h.min);
    put_opt_u64(out, h.max);
    out.extend_from_slice(&(h.buckets.len() as u32).to_le_bytes());
    for &(lo, hi, n) in &h.buckets {
        out.extend_from_slice(&lo.to_le_bytes());
        out.extend_from_slice(&hi.to_le_bytes());
        out.extend_from_slice(&n.to_le_bytes());
    }
}

fn decode_histogram_wire(c: &mut Cursor<'_>) -> Result<HistogramSnapshot, ProtoError> {
    let count = c.u64()?;
    let sum = c.u64()?;
    let min = take_opt_u64(c)?;
    let max = take_opt_u64(c)?;
    let nb = decode_bounded_count(c, MAX_HISTOGRAM_BUCKETS, "bucket count exceeds bound")?;
    let mut buckets = Vec::with_capacity(nb as usize);
    for _ in 0..nb {
        buckets.push((c.u64()?, c.u64()?, c.u64()?));
    }
    Ok(HistogramSnapshot {
        count,
        sum,
        min,
        max,
        buckets,
    })
}

fn encode_snapshot_wire(out: &mut Vec<u8>, s: &Snapshot) {
    out.extend_from_slice(&(s.counters.len() as u32).to_le_bytes());
    for (name, v) in &s.counters {
        put_string(out, name);
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(s.gauges.len() as u32).to_le_bytes());
    for (name, v) in &s.gauges {
        put_string(out, name);
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(s.meters.len() as u32).to_le_bytes());
    for (name, m) in &s.meters {
        put_string(out, name);
        out.extend_from_slice(&m.count.to_le_bytes());
        out.extend_from_slice(&m.rate_per_sec.to_le_bytes());
    }
    out.extend_from_slice(&(s.histograms.len() as u32).to_le_bytes());
    for (name, h) in &s.histograms {
        put_string(out, name);
        encode_histogram_wire(out, h);
    }
    out.extend_from_slice(&(s.spans.len() as u32).to_le_bytes());
    for (name, sp) in &s.spans {
        put_string(out, name);
        out.extend_from_slice(&sp.count.to_le_bytes());
        out.extend_from_slice(&sp.total_ns.to_le_bytes());
        out.extend_from_slice(&sp.min_ns.to_le_bytes());
        out.extend_from_slice(&sp.max_ns.to_le_bytes());
    }
}

fn decode_snapshot_wire(c: &mut Cursor<'_>) -> Result<Snapshot, ProtoError> {
    const TOO_MANY: &str = "metric entry count exceeds bound";
    let n = decode_bounded_count(c, MAX_METRICS_ENTRIES, TOO_MANY)?;
    let mut counters = Vec::with_capacity(n as usize);
    for _ in 0..n {
        counters.push((c.string()?, c.u64()?));
    }
    let n = decode_bounded_count(c, MAX_METRICS_ENTRIES, TOO_MANY)?;
    let mut gauges = Vec::with_capacity(n as usize);
    for _ in 0..n {
        gauges.push((c.string()?, c.f64()?));
    }
    let n = decode_bounded_count(c, MAX_METRICS_ENTRIES, TOO_MANY)?;
    let mut meters = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let name = c.string()?;
        meters.push((
            name,
            MeterSnapshot {
                count: c.u64()?,
                rate_per_sec: c.f64()?,
            },
        ));
    }
    let n = decode_bounded_count(c, MAX_METRICS_ENTRIES, TOO_MANY)?;
    let mut histograms = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let name = c.string()?;
        histograms.push((name, decode_histogram_wire(c)?));
    }
    let n = decode_bounded_count(c, MAX_METRICS_ENTRIES, TOO_MANY)?;
    let mut spans = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let name = c.string()?;
        spans.push((
            name,
            SpanSnapshot {
                count: c.u64()?,
                total_ns: c.u64()?,
                min_ns: c.u64()?,
                max_ns: c.u64()?,
            },
        ));
    }
    Ok(Snapshot {
        counters,
        gauges,
        meters,
        histograms,
        spans,
    })
}

fn encode_server_stats(out: &mut Vec<u8>, s: &ServerStatsWire) {
    out.extend_from_slice(&s.sessions_active.to_le_bytes());
    out.extend_from_slice(&s.frames_in.to_le_bytes());
    out.extend_from_slice(&s.bytes_in.to_le_bytes());
    out.extend_from_slice(&s.samples_in.to_le_bytes());
    out.extend_from_slice(&s.events_total.to_le_bytes());
    out.extend_from_slice(&s.sheds.to_le_bytes());
}

fn decode_server_stats(c: &mut Cursor<'_>) -> Result<ServerStatsWire, ProtoError> {
    Ok(ServerStatsWire {
        sessions_active: c.u64()?,
        frames_in: c.u64()?,
        bytes_in: c.u64()?,
        samples_in: c.u64()?,
        events_total: c.u64()?,
        sheds: c.u64()?,
    })
}

/// Appends `frame`'s payload to `p` and returns its header type and
/// flags.
fn encode_payload(frame: &Frame, p: &mut Vec<u8>) -> (FrameType, u8) {
    match frame {
        Frame::Hello(h) => {
            p.extend_from_slice(&h.sample_rate_hz.to_le_bytes());
            p.extend_from_slice(&h.clock_hz.to_le_bytes());
            let c = &h.config;
            p.extend_from_slice(&(c.norm_window_samples as u64).to_le_bytes());
            p.extend_from_slice(&c.threshold.to_le_bytes());
            p.extend_from_slice(&c.min_duration_cycles.to_le_bytes());
            p.extend_from_slice(&(c.min_duration_samples as u64).to_le_bytes());
            p.extend_from_slice(&(c.merge_gap_samples as u64).to_le_bytes());
            p.extend_from_slice(&c.edge_level.to_le_bytes());
            p.extend_from_slice(&c.refresh_min_cycles.to_le_bytes());
            p.push(c.calib.enabled as u8);
            p.extend_from_slice(&(c.calib.block_samples as u64).to_le_bytes());
            p.extend_from_slice(&c.calib.ewma_weight.to_le_bytes());
            p.extend_from_slice(&c.calib.threshold_pad.to_le_bytes());
            p.extend_from_slice(&c.calib.threshold_max.to_le_bytes());
            p.extend_from_slice(&c.calib.gate_fraction.to_le_bytes());
            p.extend_from_slice(&c.calib.degraded_enter.to_le_bytes());
            p.extend_from_slice(&c.calib.degraded_exit.to_le_bytes());
            p.extend_from_slice(&(c.calib.window_min as u64).to_le_bytes());
            p.extend_from_slice(&c.calib.drift_tolerance.to_le_bytes());
            put_string(p, &h.device);
            p.extend_from_slice(&h.resume_session_id.to_le_bytes());
            p.extend_from_slice(&h.resume_token.to_le_bytes());
            let mut flags = 0;
            if h.watch {
                flags |= FLAG_WATCH;
            }
            if h.proxied {
                flags |= FLAG_PROXIED;
            }
            (FrameType::Hello, flags)
        }
        Frame::HelloAck {
            version,
            session_id,
            max_samples_per_frame,
            resume_token,
            acked_seq,
            trace_id,
        } => {
            p.extend_from_slice(&version.to_le_bytes());
            p.extend_from_slice(&session_id.to_le_bytes());
            p.extend_from_slice(&max_samples_per_frame.to_le_bytes());
            p.extend_from_slice(&resume_token.to_le_bytes());
            p.extend_from_slice(&acked_seq.to_le_bytes());
            p.extend_from_slice(&trace_id.to_le_bytes());
            (FrameType::HelloAck, 0)
        }
        Frame::Samples { seq, samples } => {
            put_samples(p, *seq, samples);
            (FrameType::Samples, 0)
        }
        Frame::Flush => (FrameType::Flush, 0),
        Frame::Fin => (FrameType::Fin, 0),
        Frame::Events { first_seq, events } => {
            p.extend_from_slice(&first_seq.to_le_bytes());
            encode_event_list(p, events);
            (FrameType::Events, 0)
        }
        Frame::Stats(s) => {
            p.extend_from_slice(&s.samples_pushed.to_le_bytes());
            p.extend_from_slice(&s.events_emitted.to_le_bytes());
            p.extend_from_slice(&s.buffered_samples.to_le_bytes());
            p.extend_from_slice(&s.queue_depth.to_le_bytes());
            p.extend_from_slice(&s.sheds.to_le_bytes());
            p.extend_from_slice(&s.acked_seq.to_le_bytes());
            p.extend_from_slice(&s.samples_rejected.to_le_bytes());
            p.extend_from_slice(&s.events_degraded.to_le_bytes());
            (
                FrameType::Stats,
                if s.final_report { FLAG_FINAL } else { 0 },
            )
        }
        Frame::Error { code, message } => {
            p.extend_from_slice(&(*code as u16).to_le_bytes());
            put_string(p, message);
            (FrameType::Error, 0)
        }
        Frame::Watch { cursor } => {
            p.extend_from_slice(&cursor.to_le_bytes());
            (FrameType::Watch, 0)
        }
        Frame::Tail(t) => {
            p.extend_from_slice(&t.cursor.to_le_bytes());
            p.extend_from_slice(&t.missed.to_le_bytes());
            encode_server_stats(p, &t.server);
            p.extend_from_slice(&(t.events.len() as u32).to_le_bytes());
            for te in &t.events {
                p.extend_from_slice(&te.session_id.to_le_bytes());
                encode_event(p, &te.event);
            }
            (FrameType::Tail, 0)
        }
        Frame::Heartbeat { acked_seq } => {
            p.extend_from_slice(&acked_seq.to_le_bytes());
            (FrameType::Heartbeat, 0)
        }
        Frame::EventsAck { seq } => {
            p.extend_from_slice(&seq.to_le_bytes());
            (FrameType::EventsAck, 0)
        }
        Frame::MetricsRequest => (FrameType::MetricsRequest, 0),
        Frame::Metrics(m) => {
            encode_snapshot_wire(p, &m.snapshot);
            encode_server_stats(p, &m.server);
            p.extend_from_slice(&(m.sessions.len() as u32).to_le_bytes());
            for row in &m.sessions {
                p.extend_from_slice(&row.session_id.to_le_bytes());
                p.extend_from_slice(&row.trace_id.to_le_bytes());
                put_string(p, &row.device);
                p.push(row.connected as u8);
                p.extend_from_slice(&row.queue_depth.to_le_bytes());
                p.extend_from_slice(&row.queue_capacity.to_le_bytes());
                p.extend_from_slice(&row.samples_pushed.to_le_bytes());
                p.extend_from_slice(&row.samples_per_sec.to_le_bytes());
                p.extend_from_slice(&row.events_emitted.to_le_bytes());
                p.extend_from_slice(&row.events_acked.to_le_bytes());
                p.extend_from_slice(&row.journaled_events.to_le_bytes());
                p.extend_from_slice(&row.sheds.to_le_bytes());
                p.extend_from_slice(&row.samples_rejected.to_le_bytes());
                p.extend_from_slice(&row.events_degraded.to_le_bytes());
                p.extend_from_slice(&row.idle_ms.to_le_bytes());
            }
            (FrameType::Metrics, 0)
        }
        Frame::HealthRequest => (FrameType::HealthRequest, 0),
        Frame::Health(h) => {
            p.push(h.healthy as u8);
            p.extend_from_slice(&h.uptime_ms.to_le_bytes());
            p.extend_from_slice(&h.sessions_active.to_le_bytes());
            p.extend_from_slice(&h.max_sessions.to_le_bytes());
            p.push(h.journal_enabled as u8);
            (FrameType::Health, 0)
        }
        Frame::FlightRequest { session_id } => {
            p.extend_from_slice(&session_id.to_le_bytes());
            (FrameType::FlightRequest, 0)
        }
        Frame::FlightReply { dumps } => {
            p.extend_from_slice(&(dumps.len() as u32).to_le_bytes());
            for d in dumps {
                p.extend_from_slice(&d.session_id.to_le_bytes());
                p.extend_from_slice(&d.trace_id.to_le_bytes());
                put_long_string(p, &d.json);
            }
            (FrameType::FlightReply, 0)
        }
        Frame::ClusterJoin { name, addr, action } => {
            put_string(p, name);
            put_string(p, addr);
            p.push(*action as u8);
            (FrameType::ClusterJoin, 0)
        }
        Frame::ClusterStateRequest => (FrameType::ClusterState, FLAG_REQUEST),
        Frame::ClusterStateReply { nodes } => {
            p.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
            for n in nodes {
                encode_node_health(p, n);
            }
            (FrameType::ClusterState, 0)
        }
        Frame::NodeHealthRequest => (FrameType::NodeHealth, FLAG_REQUEST),
        Frame::NodeHealthReply(n) => {
            encode_node_health(p, n);
            (FrameType::NodeHealth, 0)
        }
        Frame::Query(q) => {
            p.extend_from_slice(&q.t0.to_le_bytes());
            p.extend_from_slice(&q.t1.to_le_bytes());
            p.extend_from_slice(&q.bucket_samples.to_le_bytes());
            p.extend_from_slice(&(q.sessions.len() as u32).to_le_bytes());
            for id in &q.sessions {
                p.extend_from_slice(&id.to_le_bytes());
            }
            (FrameType::Query, 0)
        }
        Frame::QueryResult(r) => {
            p.extend_from_slice(&r.events.to_le_bytes());
            p.extend_from_slice(&r.degraded.to_le_bytes());
            p.extend_from_slice(&r.refresh_collisions.to_le_bytes());
            encode_histogram_wire(p, &r.latency);
            p.extend_from_slice(&(r.timeline.len() as u32).to_le_bytes());
            for n in &r.timeline {
                p.extend_from_slice(&n.to_le_bytes());
            }
            p.extend_from_slice(&(r.sessions.len() as u32).to_le_bytes());
            for row in &r.sessions {
                p.extend_from_slice(&row.session_id.to_le_bytes());
                put_string(p, &row.device);
                p.extend_from_slice(&row.events.to_le_bytes());
                p.extend_from_slice(&row.degraded.to_le_bytes());
                p.extend_from_slice(&row.refresh_collisions.to_le_bytes());
            }
            p.extend_from_slice(&r.segments_scanned.to_le_bytes());
            p.extend_from_slice(&r.segments_pruned.to_le_bytes());
            p.extend_from_slice(&r.cache_hits.to_le_bytes());
            p.extend_from_slice(&r.cache_misses.to_le_bytes());
            p.extend_from_slice(&r.nodes.to_le_bytes());
            (FrameType::QueryResult, 0)
        }
    }
}

fn encode_node_health(out: &mut Vec<u8>, n: &NodeHealthWire) {
    put_string(out, &n.name);
    put_string(out, &n.addr);
    out.push(n.up as u8);
    out.push(n.draining as u8);
    out.extend_from_slice(&n.sessions_active.to_le_bytes());
    out.extend_from_slice(&n.max_sessions.to_le_bytes());
    out.extend_from_slice(&n.migrations_in.to_le_bytes());
    out.extend_from_slice(&n.migrations_out.to_le_bytes());
    out.extend_from_slice(&n.consecutive_failures.to_le_bytes());
    out.extend_from_slice(&n.uptime_ms.to_le_bytes());
}

fn decode_node_health(c: &mut Cursor<'_>) -> Result<NodeHealthWire, ProtoError> {
    Ok(NodeHealthWire {
        name: c.string()?,
        addr: c.string()?,
        up: c.u8()? != 0,
        draining: c.u8()? != 0,
        sessions_active: c.u64()?,
        max_sessions: c.u64()?,
        migrations_in: c.u64()?,
        migrations_out: c.u64()?,
        consecutive_failures: c.u64()?,
        uptime_ms: c.u64()?,
    })
}

fn decode_payload(ty: FrameType, flags: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut c = Cursor::new(payload);
    let frame = match ty {
        FrameType::Hello => {
            let sample_rate_hz = c.f64()?;
            let clock_hz = c.f64()?;
            let config = EmprofConfig {
                norm_window_samples: c.u64()? as usize,
                threshold: c.f64()?,
                min_duration_cycles: c.f64()?,
                min_duration_samples: c.u64()? as usize,
                merge_gap_samples: c.u64()? as usize,
                edge_level: c.f64()?,
                refresh_min_cycles: c.f64()?,
                calib: CalibConfig {
                    enabled: c.u8()? != 0,
                    block_samples: c.u64()? as usize,
                    ewma_weight: c.f64()?,
                    threshold_pad: c.f64()?,
                    threshold_max: c.f64()?,
                    gate_fraction: c.f64()?,
                    degraded_enter: c.f64()?,
                    degraded_exit: c.f64()?,
                    window_min: c.u64()? as usize,
                    drift_tolerance: c.f64()?,
                },
            };
            let device = c.string()?;
            let resume_session_id = c.u64()?;
            let resume_token = c.u64()?;
            Frame::Hello(Hello {
                sample_rate_hz,
                clock_hz,
                config,
                device,
                watch: flags & FLAG_WATCH != 0,
                proxied: flags & FLAG_PROXIED != 0,
                resume_session_id,
                resume_token,
            })
        }
        FrameType::HelloAck => Frame::HelloAck {
            version: c.u16()?,
            session_id: c.u64()?,
            max_samples_per_frame: c.u32()?,
            resume_token: c.u64()?,
            acked_seq: c.u64()?,
            trace_id: c.u64()?,
        },
        FrameType::Samples => {
            // Validated through the same view parser the zero-copy server
            // ingest path uses, then materialized for owned callers.
            let view = samples_view(payload)?;
            let mut samples = Vec::with_capacity(view.len());
            view.copy_into(&mut samples);
            return Ok(Frame::Samples {
                seq: view.seq,
                samples,
            });
        }
        FrameType::Flush => Frame::Flush,
        FrameType::Fin => Frame::Fin,
        FrameType::Events => {
            let first_seq = c.u64()?;
            let count = decode_event_count(&mut c)?;
            let mut events = Vec::with_capacity(count as usize);
            for _ in 0..count {
                events.push(decode_event(&mut c)?);
            }
            Frame::Events { first_seq, events }
        }
        FrameType::Stats => Frame::Stats(SessionStatsWire {
            samples_pushed: c.u64()?,
            events_emitted: c.u64()?,
            buffered_samples: c.u64()?,
            queue_depth: c.u64()?,
            sheds: c.u64()?,
            acked_seq: c.u64()?,
            samples_rejected: c.u64()?,
            events_degraded: c.u64()?,
            final_report: flags & FLAG_FINAL != 0,
        }),
        FrameType::Error => Frame::Error {
            code: ErrorCode::from_u16(c.u16()?),
            message: c.string()?,
        },
        FrameType::Watch => Frame::Watch { cursor: c.u64()? },
        FrameType::Tail => {
            let cursor = c.u64()?;
            let missed = c.u64()?;
            let server = decode_server_stats(&mut c)?;
            let count = decode_event_count(&mut c)?;
            let mut events = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let session_id = c.u64()?;
                events.push(TailEvent {
                    session_id,
                    event: decode_event(&mut c)?,
                });
            }
            Frame::Tail(Tail {
                cursor,
                missed,
                server,
                events,
            })
        }
        FrameType::Heartbeat => Frame::Heartbeat {
            acked_seq: c.u64()?,
        },
        FrameType::EventsAck => Frame::EventsAck { seq: c.u64()? },
        FrameType::MetricsRequest => Frame::MetricsRequest,
        FrameType::Metrics => {
            let snapshot = decode_snapshot_wire(&mut c)?;
            let server = decode_server_stats(&mut c)?;
            let count =
                decode_bounded_count(&mut c, MAX_SESSION_ROWS, "session row count exceeds bound")?;
            let mut sessions = Vec::with_capacity(count as usize);
            for _ in 0..count {
                sessions.push(SessionRow {
                    session_id: c.u64()?,
                    trace_id: c.u64()?,
                    device: c.string()?,
                    connected: c.u8()? != 0,
                    queue_depth: c.u64()?,
                    queue_capacity: c.u64()?,
                    samples_pushed: c.u64()?,
                    samples_per_sec: c.f64()?,
                    events_emitted: c.u64()?,
                    events_acked: c.u64()?,
                    journaled_events: c.u64()?,
                    sheds: c.u64()?,
                    samples_rejected: c.u64()?,
                    events_degraded: c.u64()?,
                    idle_ms: c.u64()?,
                });
            }
            Frame::Metrics(MetricsReply {
                snapshot,
                server,
                sessions,
            })
        }
        FrameType::HealthRequest => Frame::HealthRequest,
        FrameType::Health => Frame::Health(HealthWire {
            healthy: c.u8()? != 0,
            uptime_ms: c.u64()?,
            sessions_active: c.u64()?,
            max_sessions: c.u64()?,
            journal_enabled: c.u8()? != 0,
        }),
        FrameType::FlightRequest => Frame::FlightRequest {
            session_id: c.u64()?,
        },
        FrameType::FlightReply => {
            let count =
                decode_bounded_count(&mut c, MAX_FLIGHT_DUMPS, "flight dump count exceeds bound")?;
            let mut dumps = Vec::with_capacity(count as usize);
            for _ in 0..count {
                dumps.push(FlightDumpWire {
                    session_id: c.u64()?,
                    trace_id: c.u64()?,
                    json: take_long_string(&mut c)?,
                });
            }
            Frame::FlightReply { dumps }
        }
        FrameType::ClusterJoin => {
            let name = c.string()?;
            let addr = c.string()?;
            let action = ClusterAction::from_u8(c.u8()?)
                .ok_or(ProtoError::Malformed("unknown cluster action"))?;
            Frame::ClusterJoin { name, addr, action }
        }
        FrameType::ClusterState if flags & FLAG_REQUEST != 0 => Frame::ClusterStateRequest,
        FrameType::ClusterState => {
            let count =
                decode_bounded_count(&mut c, MAX_CLUSTER_NODES, "cluster node count exceeds bound")?;
            let mut nodes = Vec::with_capacity(count as usize);
            for _ in 0..count {
                nodes.push(decode_node_health(&mut c)?);
            }
            Frame::ClusterStateReply { nodes }
        }
        FrameType::NodeHealth if flags & FLAG_REQUEST != 0 => Frame::NodeHealthRequest,
        FrameType::NodeHealth => Frame::NodeHealthReply(decode_node_health(&mut c)?),
        FrameType::Query => {
            let t0 = c.u64()?;
            let t1 = c.u64()?;
            let bucket_samples = c.u64()?;
            let n = decode_bounded_count(
                &mut c,
                MAX_QUERY_SESSIONS,
                "query session count exceeds bound",
            )?;
            let mut sessions = Vec::with_capacity(n as usize);
            for _ in 0..n {
                sessions.push(c.u64()?);
            }
            Frame::Query(QuerySpecWire {
                t0,
                t1,
                bucket_samples,
                sessions,
            })
        }
        FrameType::QueryResult => {
            let events = c.u64()?;
            let degraded = c.u64()?;
            let refresh_collisions = c.u64()?;
            let latency = decode_histogram_wire(&mut c)?;
            let n = decode_bounded_count(
                &mut c,
                MAX_QUERY_BUCKETS,
                "timeline bucket count exceeds bound",
            )?;
            let mut timeline = Vec::with_capacity(n as usize);
            for _ in 0..n {
                timeline.push(c.u64()?);
            }
            let n = decode_bounded_count(
                &mut c,
                MAX_SESSION_ROWS,
                "query row count exceeds bound",
            )?;
            let mut sessions = Vec::with_capacity(n as usize);
            for _ in 0..n {
                sessions.push(QueryRowWire {
                    session_id: c.u64()?,
                    device: c.string()?,
                    events: c.u64()?,
                    degraded: c.u64()?,
                    refresh_collisions: c.u64()?,
                });
            }
            Frame::QueryResult(QueryResultWire {
                events,
                degraded,
                refresh_collisions,
                latency,
                timeline,
                sessions,
                segments_scanned: c.u64()?,
                segments_pruned: c.u64()?,
                cache_hits: c.u64()?,
                cache_misses: c.u64()?,
                nodes: c.u64()?,
            })
        }
    };
    c.done()?;
    Ok(frame)
}

// ---------------------------------------------------------------------
// Framed I/O.

/// Reserves a header placeholder at the end of `out`; returns where the
/// frame starts. The payload is appended after it, then [`seal_frame`]
/// fills the header in.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; HEADER_LEN]);
    start
}

/// Patches the header of the frame that starts at `start` and runs to
/// the end of `out`: type, flags, payload length, payload CRC, and the
/// header checksum last.
fn seal_frame(out: &mut [u8], start: usize, ty: FrameType, flags: u8) {
    let (header, payload) = out[start..].split_at_mut(HEADER_LEN);
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize, "frame too large");
    let header: &mut [u8; HEADER_LEN] = header.try_into().unwrap();
    header[0..2].copy_from_slice(&MAGIC.to_le_bytes());
    header[2..4].copy_from_slice(&VERSION.to_le_bytes());
    header[4] = ty as u8;
    header[5] = flags;
    header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[12..16].copy_from_slice(&crc32(payload).to_le_bytes());
    let hsum = header_checksum(header);
    header[6..8].copy_from_slice(&hsum.to_le_bytes());
}

/// Appends one encoded frame (header + payload) to `out`, so several
/// frames can be built into one buffer and written at once.
pub fn encode_frame_into(out: &mut Vec<u8>, frame: &Frame) {
    let start = begin_frame(out);
    let (ty, flags) = encode_payload(frame, out);
    seal_frame(out, start, ty, flags);
}

/// Serializes a frame to bytes (header + payload). A SAMPLES frame's
/// buffer is sized exactly up front.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = match frame {
        Frame::Samples { samples, .. } => 12 + 8 * samples.len(),
        _ => 64,
    };
    let mut out = Vec::with_capacity(HEADER_LEN + payload);
    encode_frame_into(&mut out, frame);
    out
}

/// Encodes a SAMPLES frame straight from a borrowed slice — the
/// client's send path, which never builds an owned [`Frame`].
pub fn encode_samples_frame(seq: u64, samples: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 12 + 8 * samples.len());
    let start = begin_frame(&mut out);
    put_samples(&mut out, seq, samples);
    seal_frame(&mut out, start, FrameType::Samples, 0);
    out
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates transport errors from the writer.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))?;
    w.flush()
}

/// Reads one frame, validating every bound and checksum before decoding.
///
/// # Errors
///
/// Returns a [`ProtoError`] on transport failure, corruption, protocol
/// bound violations, or malformed payloads.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    decode_header_then_payload(&header, |len| {
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        Ok(payload)
    })
}

/// Validates a frame header, returning the frame type, flags, payload
/// length, and expected payload checksum. Checks run in wire order:
/// magic, version, header checksum, length bound, frame type.
fn validate_header(header: &[u8; HEADER_LEN]) -> Result<(FrameType, u8, usize, u32), ProtoError> {
    if u16::from_le_bytes(header[0..2].try_into().unwrap()) != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let version = u16::from_le_bytes(header[2..4].try_into().unwrap());
    if version != VERSION {
        return Err(ProtoError::UnsupportedVersion(version));
    }
    if u16::from_le_bytes(header[6..8].try_into().unwrap()) != header_checksum(header) {
        return Err(ProtoError::HeaderChecksum);
    }
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Oversized(len));
    }
    let ty = FrameType::from_u8(header[4]).ok_or(ProtoError::UnknownType(header[4]))?;
    let sum = u32::from_le_bytes(header[12..16].try_into().unwrap());
    Ok((ty, header[5], len as usize, sum))
}

/// Header validation for the streaming reader: `fetch` is called with
/// the validated, bounded payload length.
fn decode_header_then_payload<F>(
    header: &[u8; HEADER_LEN],
    fetch: F,
) -> Result<Frame, ProtoError>
where
    F: FnOnce(usize) -> Result<Vec<u8>, ProtoError>,
{
    let (ty, flags, len, sum) = validate_header(header)?;
    let payload = fetch(len)?;
    if crc32(&payload) != sum {
        return Err(ProtoError::PayloadChecksum);
    }
    decode_payload(ty, flags, &payload)
}

/// Validates and splits one frame out of a byte slice **without
/// copying**: header checks, then the payload checksum verified over the
/// borrowed payload bytes. Returns the frame type, flags, the payload
/// slice, and the total bytes consumed.
fn split_frame(bytes: &[u8]) -> Result<(FrameType, u8, &[u8], usize), ProtoError> {
    if bytes.len() < HEADER_LEN {
        return Err(ProtoError::Io(io::ErrorKind::UnexpectedEof.into()));
    }
    let header: &[u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().unwrap();
    let (ty, flags, len, sum) = validate_header(header)?;
    let end = HEADER_LEN
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or(ProtoError::Io(io::ErrorKind::UnexpectedEof.into()))?;
    let payload = &bytes[HEADER_LEN..end];
    if crc32(payload) != sum {
        return Err(ProtoError::PayloadChecksum);
    }
    Ok((ty, flags, payload, end))
}

/// Decodes one frame from a byte slice, returning the frame and how many
/// bytes it consumed. Used by tests and anyone framing over a non-`Read`
/// transport. The payload is decoded in place (no intermediate copy);
/// the returned [`Frame`] owns whatever it decoded to.
///
/// # Errors
///
/// [`ProtoError::Io`] with `UnexpectedEof` when the slice holds less
/// than one whole frame; other [`ProtoError`]s as in [`read_frame`].
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), ProtoError> {
    let (ty, flags, payload, consumed) = split_frame(bytes)?;
    Ok((decode_payload(ty, flags, payload)?, consumed))
}

/// [`decode_frame`], except SAMPLES payloads are returned as a borrowed
/// [`SamplesView`] instead of an owned `Vec<f64>`. This is the server
/// ingest hot path: for a well-formed SAMPLES frame the call performs
/// **zero heap allocation** — validation, checksumming, and sample
/// access all happen against the caller's receive buffer.
///
/// # Errors
///
/// Exactly as [`decode_frame`].
pub fn decode_frame_view(bytes: &[u8]) -> Result<(FrameView<'_>, usize), ProtoError> {
    let (ty, flags, payload, consumed) = split_frame(bytes)?;
    let view = match ty {
        FrameType::Samples => FrameView::Samples(samples_view(payload)?),
        _ => FrameView::Owned(decode_payload(ty, flags, payload)?),
    };
    Ok((view, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> EmprofConfig {
        EmprofConfig::for_rates(40e6, 1.0e9)
    }

    fn roundtrip(frame: Frame) {
        let bytes = encode_frame(&frame);
        let (decoded, consumed) = decode_frame(&bytes).expect("decodes");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, frame);
        // And through the Read path too.
        let mut r = &bytes[..];
        assert_eq!(read_frame(&mut r).expect("reads"), frame);
    }

    #[test]
    fn long_multibyte_device_is_cut_at_a_char_boundary() {
        // 100 three-byte chars: 300 bytes, and byte 256 falls inside the
        // 86th char, so a byte cut would send invalid UTF-8.
        let hello = |device: String| Hello {
            sample_rate_hz: 40e6,
            clock_hz: 1.008e9,
            config: sample_config(),
            device,
            watch: false,
            proxied: false,
            resume_session_id: 0,
            resume_token: 0,
        };
        let bytes = encode_frame(&Frame::Hello(hello("\u{20AC}".repeat(100))));
        let (decoded, consumed) = decode_frame(&bytes).expect("decodes");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, Frame::Hello(hello("\u{20AC}".repeat(85))));
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(Frame::Hello(Hello {
            sample_rate_hz: 40e6,
            clock_hz: 1.008e9,
            config: sample_config(),
            device: "olimex".into(),
            watch: false,
            proxied: false,
            resume_session_id: 0,
            resume_token: 0,
        }));
        roundtrip(Frame::Hello(Hello {
            sample_rate_hz: 40e6,
            clock_hz: 1.008e9,
            config: EmprofConfig {
                calib: CalibConfig::adaptive(),
                ..sample_config()
            },
            device: "adaptive".into(),
            watch: false,
            proxied: false,
            resume_session_id: 0,
            resume_token: 0,
        }));
        roundtrip(Frame::Hello(Hello {
            sample_rate_hz: 40e6,
            clock_hz: 1.008e9,
            config: sample_config(),
            device: "routed".into(),
            watch: false,
            proxied: true,
            resume_session_id: 3,
            resume_token: 4,
        }));
        roundtrip(Frame::Hello(Hello {
            sample_rate_hz: 1.0,
            clock_hz: 1.0,
            config: sample_config(),
            device: String::new(),
            watch: true,
            proxied: false,
            resume_session_id: 17,
            resume_token: 0xDEAD_BEEF_CAFE,
        }));
        roundtrip(Frame::HelloAck {
            version: VERSION,
            session_id: 42,
            max_samples_per_frame: MAX_SAMPLES_PER_FRAME,
            resume_token: 99,
            acked_seq: 1234,
            trace_id: 0x9e37_79b9_7f4a_7c15,
        });
        roundtrip(Frame::Samples {
            seq: 1,
            samples: vec![],
        });
        roundtrip(Frame::Samples {
            seq: u64::MAX,
            samples: (0..1000).map(|i| i as f64 * 0.5).collect(),
        });
        roundtrip(Frame::Flush);
        roundtrip(Frame::Fin);
        roundtrip(Frame::Events {
            first_seq: 7,
            events: vec![
                StallEvent {
                    start_sample: 10,
                    end_sample: 20,
                    duration_cycles: 250.0,
                    kind: StallKind::Normal,
                    confidence: Confidence::High,
                },
                StallEvent {
                    start_sample: 100,
                    end_sample: 220,
                    duration_cycles: 3000.0,
                    kind: StallKind::RefreshCollision,
                    confidence: Confidence::Degraded,
                },
                StallEvent {
                    start_sample: 300,
                    end_sample: 305,
                    duration_cycles: 125.0,
                    kind: StallKind::Normal,
                    confidence: Confidence::Degraded,
                },
            ],
        });
        roundtrip(Frame::Events {
            first_seq: 1,
            events: vec![],
        });
        roundtrip(Frame::EventsAck { seq: 0 });
        roundtrip(Frame::EventsAck { seq: u64::MAX });
        roundtrip(Frame::Stats(SessionStatsWire {
            samples_pushed: 1,
            events_emitted: 2,
            buffered_samples: 3,
            queue_depth: 4,
            sheds: 5,
            acked_seq: 6,
            samples_rejected: 7,
            events_degraded: 1,
            final_report: true,
        }));
        roundtrip(Frame::Heartbeat { acked_seq: 0 });
        roundtrip(Frame::Heartbeat { acked_seq: 31_337 });
        roundtrip(Frame::Error {
            code: ErrorCode::SessionLimit,
            message: "full".into(),
        });
        roundtrip(Frame::Watch { cursor: 7 });
        roundtrip(Frame::ClusterJoin {
            name: "n1".into(),
            addr: "127.0.0.1:7701".into(),
            action: ClusterAction::Join,
        });
        roundtrip(Frame::ClusterJoin {
            name: "n2".into(),
            addr: String::new(),
            action: ClusterAction::Drain,
        });
        roundtrip(Frame::ClusterStateRequest);
        roundtrip(Frame::ClusterStateReply { nodes: vec![] });
        roundtrip(Frame::ClusterStateReply {
            nodes: vec![
                NodeHealthWire {
                    name: "n1".into(),
                    addr: "127.0.0.1:7701".into(),
                    up: true,
                    draining: false,
                    sessions_active: 3,
                    max_sessions: 256,
                    migrations_in: 1,
                    migrations_out: 0,
                    consecutive_failures: 0,
                    uptime_ms: 12_345,
                },
                NodeHealthWire {
                    name: "n2".into(),
                    addr: "127.0.0.1:7702".into(),
                    up: false,
                    draining: true,
                    sessions_active: 0,
                    max_sessions: 256,
                    migrations_in: 0,
                    migrations_out: 3,
                    consecutive_failures: 7,
                    uptime_ms: 99,
                },
            ],
        });
        roundtrip(Frame::NodeHealthRequest);
        roundtrip(Frame::NodeHealthReply(NodeHealthWire {
            name: String::new(),
            addr: "127.0.0.1:7700".into(),
            up: true,
            draining: false,
            sessions_active: 2,
            max_sessions: 64,
            migrations_in: 0,
            migrations_out: 0,
            consecutive_failures: 0,
            uptime_ms: 1,
        }));
        roundtrip(Frame::Tail(Tail {
            cursor: 9,
            missed: 1,
            server: ServerStatsWire {
                sessions_active: 2,
                frames_in: 3,
                bytes_in: 4,
                samples_in: 5,
                events_total: 6,
                sheds: 7,
            },
            events: vec![TailEvent {
                session_id: 3,
                event: StallEvent {
                    start_sample: 5,
                    end_sample: 9,
                    duration_cycles: 100.0,
                    kind: StallKind::Normal,
                    confidence: Confidence::Degraded,
                },
            }],
        }));
    }

    fn sample_metrics_reply() -> MetricsReply {
        MetricsReply {
            snapshot: Snapshot {
                counters: vec![("serve.events".into(), 7), ("serve.frames_in".into(), 9)],
                gauges: vec![("serve.sessions_active".into(), 2.0)],
                meters: vec![(
                    "meter.samples_in".into(),
                    MeterSnapshot {
                        count: 4096,
                        rate_per_sec: 1.5e6,
                    },
                )],
                histograms: vec![(
                    "detect.event_width_samples".into(),
                    HistogramSnapshot {
                        count: 3,
                        sum: 60,
                        min: Some(10),
                        max: Some(30),
                        buckets: vec![(8, 16, 2), (16, 32, 1)],
                    },
                )],
                spans: vec![(
                    "serve.ingest".into(),
                    SpanSnapshot {
                        count: 5,
                        total_ns: 1000,
                        min_ns: 100,
                        max_ns: 400,
                    },
                )],
            },
            server: ServerStatsWire {
                sessions_active: 1,
                frames_in: 9,
                bytes_in: 100,
                samples_in: 4096,
                events_total: 7,
                sheds: 0,
            },
            sessions: vec![SessionRow {
                session_id: 3,
                trace_id: 0xDEAD_BEEF,
                device: "olimex".into(),
                connected: true,
                queue_depth: 2,
                queue_capacity: 64,
                samples_pushed: 4096,
                samples_per_sec: 1.5e6,
                events_emitted: 7,
                events_acked: 5,
                journaled_events: 7,
                sheds: 0,
                samples_rejected: 1,
                events_degraded: 2,
                idle_ms: 12,
            }],
        }
    }

    #[test]
    fn observability_frames_roundtrip() {
        roundtrip(Frame::MetricsRequest);
        roundtrip(Frame::Metrics(sample_metrics_reply()));
        roundtrip(Frame::Metrics(MetricsReply::default()));
        roundtrip(Frame::HealthRequest);
        roundtrip(Frame::Health(HealthWire {
            healthy: true,
            uptime_ms: 120_000,
            sessions_active: 3,
            max_sessions: 256,
            journal_enabled: true,
        }));
        roundtrip(Frame::FlightRequest { session_id: 0 });
        roundtrip(Frame::FlightRequest { session_id: 42 });
        roundtrip(Frame::FlightReply { dumps: vec![] });
        roundtrip(Frame::FlightReply {
            dumps: vec![FlightDumpWire {
                session_id: 3,
                trace_id: 99,
                json: "{\"type\":\"flight\",\"events\":[]}".into(),
            }],
        });
    }

    #[test]
    fn session_row_delivery_lag_saturates() {
        let mut row = SessionRow {
            events_emitted: 10,
            events_acked: 4,
            ..SessionRow::default()
        };
        assert_eq!(row.delivery_lag(), 6);
        row.events_acked = 12; // stale ack past emitted must not wrap
        assert_eq!(row.delivery_lag(), 0);
    }

    #[test]
    fn truncated_metrics_frames_are_rejected_cleanly() {
        let bytes = encode_frame(&Frame::Metrics(sample_metrics_reply()));
        for cut in (HEADER_LEN..bytes.len()).step_by(7) {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn bit_flipped_metrics_frames_never_panic() {
        // Every single-bit flip either fails a checksum or (if it lands
        // in the checksum fields themselves, making them consistent by
        // fluke) still decodes without panicking.
        let bytes = encode_frame(&Frame::Metrics(sample_metrics_reply()));
        for i in (0..bytes.len()).step_by(3) {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                let _ = decode_frame(&corrupt);
            }
        }
        let health = encode_frame(&Frame::Health(HealthWire::default()));
        for i in 0..health.len() {
            let mut corrupt = health.clone();
            corrupt[i] ^= 0xff;
            let _ = decode_frame(&corrupt);
        }
    }

    #[test]
    fn oversized_metric_counts_are_rejected() {
        // Hand-build a Metrics payload announcing too many counters.
        let mut payload = Vec::new();
        payload.extend_from_slice(&(MAX_METRICS_ENTRIES + 1).to_le_bytes());
        let mut buf = [0u8; HEADER_LEN];
        buf[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        buf[2..4].copy_from_slice(&VERSION.to_le_bytes());
        buf[4] = FrameType::Metrics as u8;
        buf[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        buf[12..16].copy_from_slice(&crc32(&payload).to_le_bytes());
        let hsum = header_checksum(&buf);
        buf[6..8].copy_from_slice(&hsum.to_le_bytes());
        let mut bytes = buf.to_vec();
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn cluster_frame_bounds_are_enforced() {
        // A ClusterState reply announcing too many nodes fails at the
        // count, before any row is read.
        let mut payload = Vec::new();
        payload.extend_from_slice(&(MAX_CLUSTER_NODES + 1).to_le_bytes());
        let mut buf = [0u8; HEADER_LEN];
        buf[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        buf[2..4].copy_from_slice(&VERSION.to_le_bytes());
        buf[4] = FrameType::ClusterState as u8;
        buf[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        buf[12..16].copy_from_slice(&crc32(&payload).to_le_bytes());
        let hsum = header_checksum(&buf);
        buf[6..8].copy_from_slice(&hsum.to_le_bytes());
        let mut bytes = buf.to_vec();
        bytes.extend_from_slice(&payload);
        assert!(matches!(decode_frame(&bytes), Err(ProtoError::Malformed(_))));

        // An unknown cluster action byte is malformed, not a panic.
        let mut join = encode_frame(&Frame::ClusterJoin {
            name: "n".into(),
            addr: "a".into(),
            action: ClusterAction::Leave,
        });
        let last = join.len() - 1;
        join[last] = 99;
        let sum = crc32(&join[HEADER_LEN..]);
        join[12..16].copy_from_slice(&sum.to_le_bytes());
        let hsum = header_checksum(&join[..HEADER_LEN].try_into().unwrap());
        join[6..8].copy_from_slice(&hsum.to_le_bytes());
        assert!(matches!(decode_frame(&join), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn query_frames_roundtrip() {
        roundtrip(Frame::Query(QuerySpecWire::default()));
        roundtrip(Frame::Query(QuerySpecWire {
            t0: 1_000,
            t1: 2_000_000,
            bucket_samples: 4_096,
            sessions: vec![1, 7, 42],
        }));
        roundtrip(Frame::QueryResult(QueryResultWire::default()));
        roundtrip(Frame::QueryResult(QueryResultWire {
            events: 12,
            degraded: 3,
            refresh_collisions: 2,
            latency: HistogramSnapshot {
                count: 12,
                sum: 4_800,
                min: Some(100),
                max: Some(900),
                buckets: vec![(64, 127, 4), (128, 255, 8)],
            },
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
        }));
    }

    #[test]
    fn query_frame_bounds_are_enforced() {
        // A QUERY announcing too many session ids fails at the count.
        let mut payload = Vec::new();
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&(MAX_QUERY_SESSIONS + 1).to_le_bytes());
        let mut buf = [0u8; HEADER_LEN];
        buf[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        buf[2..4].copy_from_slice(&VERSION.to_le_bytes());
        buf[4] = FrameType::Query as u8;
        buf[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        buf[12..16].copy_from_slice(&crc32(&payload).to_le_bytes());
        let hsum = header_checksum(&buf);
        buf[6..8].copy_from_slice(&hsum.to_le_bytes());
        let mut bytes = buf.to_vec();
        bytes.extend_from_slice(&payload);
        assert!(matches!(decode_frame(&bytes), Err(ProtoError::Malformed(_))));
    }

    #[test]
    fn query_result_merge_aggregates() {
        let a = QueryResultWire {
            events: 3,
            degraded: 1,
            refresh_collisions: 0,
            latency: HistogramSnapshot {
                count: 3,
                sum: 300,
                min: Some(50),
                max: Some(200),
                buckets: vec![(32, 63, 1), (128, 255, 2)],
            },
            timeline: vec![1, 2],
            sessions: vec![QueryRowWire {
                session_id: 9,
                device: "b".into(),
                events: 3,
                ..QueryRowWire::default()
            }],
            segments_scanned: 2,
            segments_pruned: 1,
            cache_hits: 0,
            cache_misses: 2,
            nodes: 1,
        };
        let b = QueryResultWire {
            events: 2,
            degraded: 0,
            refresh_collisions: 1,
            latency: HistogramSnapshot {
                count: 2,
                sum: 600,
                min: Some(250),
                max: Some(350),
                buckets: vec![(128, 255, 1), (256, 511, 1)],
            },
            timeline: vec![0, 1, 1],
            sessions: vec![QueryRowWire {
                session_id: 4,
                device: "a".into(),
                events: 2,
                ..QueryRowWire::default()
            }],
            segments_scanned: 1,
            segments_pruned: 0,
            cache_hits: 3,
            cache_misses: 0,
            nodes: 1,
        };
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.events, 5);
        assert_eq!(ab.latency.count, 5);
        assert_eq!(ab.latency.min, Some(50));
        assert_eq!(ab.latency.max, Some(350));
        assert_eq!(
            ab.latency.buckets,
            vec![(32, 63, 1), (128, 255, 3), (256, 511, 1)]
        );
        assert_eq!(ab.timeline, vec![1, 3, 1]);
        assert_eq!(ab.sessions[0].session_id, 4, "rows re-sorted by id");
        assert_eq!(ab.nodes, 2);
        // Merge is order-independent.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.events, ba.events);
        assert_eq!(ab.latency, ba.latency);
        assert_eq!(ab.timeline, ba.timeline);
        assert_eq!(ab.sessions, ba.sessions);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode_frame(&Frame::Flush);
        bytes[0] = b'X';
        assert!(matches!(decode_frame(&bytes), Err(ProtoError::BadMagic)));
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut bytes = encode_frame(&Frame::Flush);
        bytes[2] = 99;
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn header_corruption_is_detected() {
        let mut bytes = encode_frame(&Frame::Watch { cursor: 3 });
        bytes[5] ^= 0x40; // flip a flag bit without fixing the checksum
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::HeaderChecksum)
        ));
    }

    #[test]
    fn payload_corruption_is_detected() {
        let mut bytes = encode_frame(&Frame::Samples {
            seq: 1,
            samples: vec![1.0, 2.0, 3.0],
        });
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::PayloadChecksum)
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_reading_payload() {
        let mut bytes = encode_frame(&Frame::Flush);
        bytes[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let hsum = header_checksum(&bytes[..HEADER_LEN].try_into().unwrap());
        bytes[6..8].copy_from_slice(&hsum.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(ProtoError::Oversized(_))));
    }

    #[test]
    fn unknown_frame_type_is_rejected() {
        let mut bytes = encode_frame(&Frame::Flush);
        bytes[4] = 200;
        let hsum = header_checksum(&bytes[..HEADER_LEN].try_into().unwrap());
        bytes[6..8].copy_from_slice(&hsum.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::UnknownType(200))
        ));
    }

    #[test]
    fn truncated_inputs_want_more_bytes() {
        let bytes = encode_frame(&Frame::Samples {
            seq: 1,
            samples: vec![1.0; 16],
        });
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            assert!(
                matches!(decode_frame(&bytes[..cut]), Err(ProtoError::Io(_))),
                "cut at {cut} should want more bytes"
            );
        }
    }

    #[test]
    fn fuzzed_random_bytes_never_panic() {
        // Deterministic pseudo-random buffers; the decoder must fail
        // cleanly (or decode — some buffers may be valid) without
        // panicking or over-allocating.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for len in [0usize, 3, 15, 16, 17, 64, 300] {
            for _ in 0..200 {
                let buf: Vec<u8> = (0..len).map(|_| next()).collect();
                let _ = decode_frame(&buf);
            }
        }
    }

    #[test]
    fn truncated_payload_fields_are_malformed() {
        // A Samples frame whose count promises more f64s than the
        // payload carries: rebuild with a consistent checksum so only
        // the *decoder* can catch it.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes()); // seq
        payload.extend_from_slice(&10u32.to_le_bytes()); // promises 10
        payload.extend_from_slice(&1.0f64.to_le_bytes()); // delivers 1
        let mut buf = [0u8; HEADER_LEN];
        buf[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        buf[2..4].copy_from_slice(&VERSION.to_le_bytes());
        buf[4] = FrameType::Samples as u8;
        buf[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        buf[12..16].copy_from_slice(&crc32(&payload).to_le_bytes());
        let hsum = header_checksum(&buf);
        buf[6..8].copy_from_slice(&hsum.to_le_bytes());
        let mut bytes = buf.to_vec();
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            decode_frame(&bytes),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn error_codes_map_back() {
        for code in [
            ErrorCode::UnsupportedVersion,
            ErrorCode::Malformed,
            ErrorCode::Checksum,
            ErrorCode::TooLarge,
            ErrorCode::Protocol,
            ErrorCode::Shutdown,
            ErrorCode::SessionLimit,
            ErrorCode::NoSession,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16), code);
        }
    }
}
