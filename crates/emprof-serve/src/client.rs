//! Blocking client library: [`ProfileClient`] streams a capture to an
//! `emprof-serve` instance and collects the events it detects;
//! [`WatchClient`] tails the server-wide event stream. Used by the
//! `emprof push` / `emprof watch` CLI commands, the examples, and the
//! equivalence tests.
//!
//! ## Resilience
//!
//! Both clients survive transport loss. A [`ProfileClient`] keeps every
//! SAMPLES frame the server has not yet acknowledged; when the
//! connection dies it reconnects with exponential backoff (plus
//! deterministic jitter), presents the session's resume token, and
//! replays exactly the frames past the server's acked sequence — the
//! server drops replayed duplicates by sequence number, so the detector
//! ingests each sample once no matter how many times the link flaps.
//! The resulting event stream is bit-for-bit the uninterrupted one
//! (enforced by `tests/serve_resilience.rs`).
//!
//! Event delivery is **exactly-once**: every EVENTS frame carries the
//! sequence number of its first event, the client keeps an
//! `events_seen` watermark and drops redelivered prefixes, and it
//! acknowledges consumption with an EVENTS_ACK frame. The server only
//! advances its delivery cursor on that ack, so a reply lost in flight
//! (or a server restart with a `--journal`) re-offers the unacked
//! suffix and the client deduplicates it — no event is ever lost *or*
//! duplicated.
//!
//! A [`WatchClient`] reconnects with the same cursor, so a tail
//! survives flaps of the link without losing its place; if a restarted
//! server answers with an older cursor the client adopts it and counts
//! a [`WatchClient::tail_resets`] instead of silently rewinding to
//! zero. Server HEARTBEAT frames are absorbed (and their acked
//! sequence recorded) wherever a reply is awaited, so an
//! idle-but-alive connection never trips the read timeout. All knobs
//! live in [`ClientConfig`].

use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use emprof_core::{EmprofConfig, StallEvent};
use emprof_obs as obs;

use crate::proto::{
    self, ClusterAction, ErrorCode, FlightDumpWire, Frame, HealthWire, Hello, MetricsReply,
    NodeHealthWire, ProtoError, QueryResultWire, QuerySpecWire, SessionStatsWire, Tail, VERSION,
};

/// Transport-resilience knobs for [`ProfileClient`] and [`WatchClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Socket read timeout. With server heartbeats enabled this can be
    /// a little over the heartbeat interval; without them it bounds how
    /// long a reply is awaited before the connection is declared dead.
    pub read_timeout: Duration,
    /// First reconnect backoff delay; doubles per consecutive attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Reconnect attempts per failed operation before giving up.
    /// `0` disables resilience entirely: the first transport error is
    /// returned to the caller (the pre-resume behavior).
    pub max_reconnects: u32,
    /// Unacknowledged SAMPLES frames retained for replay before the
    /// client forces a FLUSH to advance the server's ack watermark.
    /// This bounds client memory; the events such an implicit flush
    /// returns are stashed and prepended to the next explicit
    /// [`ProfileClient::flush`] / [`ProfileClient::finish`] result.
    pub max_unacked_frames: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(60),
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            max_reconnects: 5,
            max_unacked_frames: 64,
        }
    }
}

/// What can go wrong on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server sent something unreadable.
    Proto(ProtoError),
    /// The server answered with an ERROR frame.
    Server {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server sent a well-formed frame that makes no sense here.
    Unexpected(&'static str),
    /// The reconnect budget was spent without restoring the session.
    /// Carries the number of attempts and the *last* underlying failure
    /// (seeded with the error that triggered reconnection, so a budget
    /// of zero attempts still reports a precise cause).
    ReconnectFailed {
        /// Reconnect attempts made before giving up.
        attempts: u32,
        /// The most recent failure.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected server reply: {what}"),
            ClientError::ReconnectFailed { attempts, last } => {
                write!(f, "reconnect failed after {attempts} attempts; last error: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(e) => ClientError::Io(e),
            other => ClientError::Proto(other),
        }
    }
}

impl ClientError {
    /// Whether reconnecting could plausibly cure this failure. Server
    /// rejections (bad config, session limit, no such session) are
    /// deliberate answers, not transport trouble.
    fn is_transport(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::Proto(_))
    }
}

/// A client connection: replies are read through a buffer (a frame's
/// header and payload usually arrive in one read), requests are written
/// to the socket directly with [`BufReader::get_mut`].
type Link = BufReader<TcpStream>;

/// Resolves and connects with the configured read timeout.
fn connect_stream(addrs: &[SocketAddr], read_timeout: Duration) -> io::Result<Link> {
    let stream = TcpStream::connect(addrs)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(read_timeout))?;
    Ok(BufReader::new(stream))
}

/// Reads one frame, promoting server ERROR frames to [`ClientError`]
/// and absorbing heartbeats (reporting their acked sequence to `acked`).
fn read_reply<F: FnMut(u64)>(stream: &mut impl Read, mut acked: F) -> Result<Frame, ClientError> {
    loop {
        match proto::read_frame(stream)? {
            Frame::Heartbeat { acked_seq } => acked(acked_seq),
            Frame::Error { code, message } => return Err(ClientError::Server { code, message }),
            frame => return Ok(frame),
        }
    }
}

/// Reads an `EVENTS* STATS` reply sequence, deduplicating against the
/// `seen` watermark: an event whose sequence number is not past the
/// watermark was already delivered (the server re-offers its unacked
/// suffix on every reply) and is dropped. Returns the fresh events, the
/// stats, and the highest event sequence the reply offered (what the
/// caller should acknowledge).
fn read_events_and_stats<F: FnMut(u64)>(
    stream: &mut impl Read,
    seen: u64,
    mut acked: F,
) -> Result<(Vec<StallEvent>, SessionStatsWire, u64), ClientError> {
    let mut fresh = Vec::new();
    let mut offered = seen;
    loop {
        match read_reply(stream, &mut acked)? {
            Frame::Events { first_seq, events } => {
                for (i, event) in events.into_iter().enumerate() {
                    let seq = first_seq + i as u64;
                    if seq > offered {
                        fresh.push(event);
                        offered = seq;
                    }
                }
            }
            Frame::Stats(stats) => return Ok((fresh, stats, offered)),
            _ => return Err(ClientError::Unexpected("wanted EVENTS or STATS")),
        }
    }
}

/// The full HELLO_ACK contents.
struct Ack {
    session_id: u64,
    max_samples_per_frame: u32,
    resume_token: u64,
    acked_seq: u64,
    trace_id: u64,
}

fn handshake(stream: &mut Link, hello: Hello) -> Result<Ack, ClientError> {
    proto::write_frame(stream.get_mut(), &Frame::Hello(hello))?;
    match read_reply(stream, |_| {})? {
        Frame::HelloAck {
            version,
            session_id,
            max_samples_per_frame,
            resume_token,
            acked_seq,
            trace_id,
        } => {
            if version != VERSION {
                return Err(ClientError::Unexpected("server negotiated unknown version"));
            }
            Ok(Ack {
                session_id,
                max_samples_per_frame: max_samples_per_frame.max(1),
                resume_token,
                acked_seq,
                trace_id,
            })
        }
        _ => Err(ClientError::Unexpected("wanted HELLO_ACK")),
    }
}

/// Deterministic xorshift64 backoff jitter in `[0.5, 1.0)` of the
/// capped delay — spreads reconnect storms without `rand`.
fn jittered(rng: &mut u64, delay: Duration) -> Duration {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    let unit = (*rng >> 11) as f64 / (1u64 << 53) as f64;
    Duration::from_secs_f64(delay.as_secs_f64() * (0.5 + 0.5 * unit))
}

fn backoff_delay(cfg: &ClientConfig, attempt: u32) -> Duration {
    let base = cfg.backoff_base.as_secs_f64() * 2f64.powi(attempt.min(20) as i32);
    Duration::from_secs_f64(base.min(cfg.backoff_max.as_secs_f64()))
}

/// The capped, jittered reconnect delay for 0-based `attempt`: the
/// exponential [`ClientConfig`] schedule (`backoff_base` doubling up to
/// `backoff_max`) with deterministic xorshift64 jitter in `[0.5, 1.0)`
/// of the capped delay. `rng` is the caller's jitter state, advanced on
/// every call. Public so other tiers — the router's health prober — run
/// the exact schedule the clients do.
pub fn backoff_with_jitter(cfg: &ClientConfig, attempt: u32, rng: &mut u64) -> Duration {
    jittered(rng, backoff_delay(cfg, attempt))
}

/// A blocking profiling session against an `emprof-serve` instance.
///
/// # Example
///
/// ```no_run
/// use emprof_core::EmprofConfig;
/// use emprof_serve::ProfileClient;
///
/// let mut client = ProfileClient::connect(
///     "127.0.0.1:7700",
///     "olimex",
///     EmprofConfig::for_rates(40e6, 1.0e9),
///     40e6,
///     1.0e9,
/// ).unwrap();
/// client.send(&[5.0; 30_000]).unwrap();
/// let (events, stats) = client.finish().unwrap();
/// assert!(stats.final_report);
/// assert!(events.is_empty());
/// ```
#[derive(Debug)]
pub struct ProfileClient {
    stream: Link,
    addrs: Vec<SocketAddr>,
    hello: Hello,
    cfg: ClientConfig,
    session_id: u64,
    resume_token: u64,
    trace_id: u64,
    max_samples_per_frame: usize,
    /// Sequence for the next SAMPLES frame (sequences start at 1).
    next_seq: u64,
    /// Highest sequence the server has acknowledged.
    acked_seq: u64,
    /// Encoded SAMPLES frames past `acked_seq`, retained for replay
    /// after a resume.
    unacked: VecDeque<(u64, Vec<u8>)>,
    /// Highest event sequence number consumed (events are numbered from
    /// 1 by the server). Replies re-offer the server's unacked suffix;
    /// everything at or below this watermark is a duplicate and is
    /// dropped, which is the client half of exactly-once delivery.
    events_seen: u64,
    /// Fresh events consumed but not yet handed to the caller (from
    /// implicit watermark-advancing flushes, or from a reply whose
    /// follow-up acknowledgement write failed mid-exchange). Delivered
    /// with the next explicit flush/finish.
    pending_events: Vec<StallEvent>,
    /// Jitter state for backoff.
    rng: u64,
    reconnects: u64,
}

impl ProfileClient {
    /// Connects and opens a session with default resilience knobs.
    ///
    /// # Errors
    ///
    /// Fails on connection errors, protocol violations, or a server-side
    /// rejection (bad config, session limit, shutdown).
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        device: &str,
        config: EmprofConfig,
        sample_rate_hz: f64,
        clock_hz: f64,
    ) -> Result<ProfileClient, ClientError> {
        Self::connect_with(
            addr,
            device,
            config,
            sample_rate_hz,
            clock_hz,
            ClientConfig::default(),
        )
    }

    /// [`ProfileClient::connect`] with explicit [`ClientConfig`] knobs.
    ///
    /// # Errors
    ///
    /// As [`ProfileClient::connect`].
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        device: &str,
        config: EmprofConfig,
        sample_rate_hz: f64,
        clock_hz: f64,
        cfg: ClientConfig,
    ) -> Result<ProfileClient, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let hello = Hello {
            sample_rate_hz,
            clock_hz,
            config,
            device: device.into(),
            watch: false,
            proxied: false,
            resume_session_id: 0,
            resume_token: 0,
        };
        let mut stream = connect_stream(&addrs, cfg.read_timeout)?;
        let ack = handshake(&mut stream, hello.clone())?;
        Ok(ProfileClient {
            stream,
            addrs,
            hello,
            session_id: ack.session_id,
            resume_token: ack.resume_token,
            trace_id: ack.trace_id,
            max_samples_per_frame: ack.max_samples_per_frame as usize,
            next_seq: 1,
            acked_seq: 0,
            unacked: VecDeque::new(),
            events_seen: 0,
            pending_events: Vec::new(),
            rng: ack.session_id ^ ack.resume_token | 1,
            reconnects: 0,
            cfg,
        })
    }

    /// The server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The server-assigned trace id: stamps this session's flight dumps
    /// and METRICS rows, and is stable across resumes and server
    /// restarts (it is derived from the resume token).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// How many times this client has successfully resumed its session
    /// after a transport loss.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Severs the TCP connection without telling the server — a test
    /// hook simulating a transport loss. The next operation reconnects
    /// and resumes (when [`ClientConfig::max_reconnects`] permits).
    pub fn drop_connection(&mut self) {
        let _ = self.stream.get_ref().shutdown(std::net::Shutdown::Both);
    }

    fn note_acked(&mut self, acked: u64) {
        if acked > self.acked_seq {
            self.acked_seq = acked;
        }
        while self
            .unacked
            .front()
            .is_some_and(|(seq, _)| *seq <= self.acked_seq)
        {
            self.unacked.pop_front();
        }
    }

    /// Reconnects with backoff and resumes the session, replaying every
    /// unacked frame. Fatal server rejections (e.g. `NO_SESSION` after
    /// the reaper finalized the session) propagate immediately; spending
    /// the whole budget yields [`ClientError::ReconnectFailed`] carrying
    /// the last underlying cause — seeded with `cause`, the error that
    /// forced the reconnect, so even a zero-attempt budget reports
    /// something precise.
    fn reconnect_and_resume(&mut self, cause: ClientError) -> Result<(), ClientError> {
        let mut last = cause;
        for attempt in 0..self.cfg.max_reconnects {
            std::thread::sleep(jittered(&mut self.rng, backoff_delay(&self.cfg, attempt)));
            match self.try_resume() {
                Ok(()) => {
                    self.reconnects += 1;
                    obs::counter_add!("client.reconnects", 1);
                    return Ok(());
                }
                Err(e) if e.is_transport() => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::ReconnectFailed {
            attempts: self.cfg.max_reconnects,
            last: Box::new(last),
        })
    }

    fn try_resume(&mut self) -> Result<(), ClientError> {
        let mut stream = connect_stream(&self.addrs, self.cfg.read_timeout)?;
        let mut hello = self.hello.clone();
        hello.resume_session_id = self.session_id;
        hello.resume_token = self.resume_token;
        let ack = handshake(&mut stream, hello)?;
        self.stream = stream;
        self.session_id = ack.session_id;
        self.resume_token = ack.resume_token;
        self.trace_id = ack.trace_id;
        self.max_samples_per_frame = (ack.max_samples_per_frame as usize).max(1);
        self.note_acked(ack.acked_seq);
        // Replay everything the server has not acknowledged, in order,
        // with the original sequence numbers. The server drops any
        // frame it already ingested.
        for (_, frame) in &self.unacked {
            self.stream.get_mut().write_all(frame)?;
        }
        Ok(())
    }

    /// Runs `op` on the live stream, curing transport failures by
    /// reconnect-and-resume and retrying, up to the configured budget.
    fn with_resilience<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempts = 0u32;
        loop {
            match op(self) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transport() && attempts < self.cfg.max_reconnects => {
                    attempts += 1;
                    self.reconnect_and_resume(e)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Streams magnitude samples, splitting into frames the server
    /// accepts. Returns once the batch is written (the server may still
    /// be processing it; backpressure shows up as this call blocking).
    /// On transport loss the client reconnects, resumes, and replays
    /// unacknowledged frames transparently.
    ///
    /// # Errors
    ///
    /// Propagates transport failures once the reconnect budget is spent.
    pub fn send(&mut self, samples: &[f64]) -> Result<(), ClientError> {
        for chunk in samples.chunks(self.max_samples_per_frame.max(1)) {
            let seq = self.next_seq;
            self.next_seq += 1;
            // Encoded once, straight from the caller's slice; the same
            // bytes are written now and replayed after a resume.
            let frame = proto::encode_samples_frame(seq, chunk);
            self.unacked.push_back((seq, frame));
            // On transport loss, the resume replays the whole unacked
            // queue (which includes this frame); the retried write is
            // then a duplicate the server drops by sequence number, or
            // nothing at all if the resume found the frame acknowledged.
            self.with_resilience(|c| match c.unacked.back() {
                Some((s, frame)) if *s == seq => Ok(c.stream.get_mut().write_all(frame)?),
                _ => Ok(()),
            })?;
            if self.unacked.len() > self.cfg.max_unacked_frames {
                // The implicit flush stashes its fresh events in
                // `pending_events` for the next explicit flush/finish.
                self.exchange_control(false)?;
            }
        }
        Ok(())
    }

    /// Asks for every event finalized since the last delivery, plus a
    /// stats snapshot. Blocks until the server has ingested everything
    /// sent before this call. Events gathered by implicit
    /// watermark-advancing flushes are prepended.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures once the reconnect
    /// budget is spent.
    pub fn flush(&mut self) -> Result<(Vec<StallEvent>, SessionStatsWire), ClientError> {
        let stats = self.exchange_control(false)?;
        Ok((std::mem::take(&mut self.pending_events), stats))
    }

    /// Ends the capture: the server finalizes the detector and returns
    /// every not-yet-delivered event and the final stats. Events
    /// gathered by implicit flushes are prepended.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures once the reconnect
    /// budget is spent.
    pub fn finish(mut self) -> Result<(Vec<StallEvent>, SessionStatsWire), ClientError> {
        let stats = self.exchange_control(true)?;
        Ok((std::mem::take(&mut self.pending_events), stats))
    }

    /// One FLUSH or FIN round trip with resilience. Fresh events land in
    /// `pending_events`; only the stats are returned.
    ///
    /// Exactly-once mechanics: the reply's events are deduplicated
    /// against `events_seen` and stashed *before* the acknowledgement is
    /// written, so a transport loss anywhere in the exchange is safe —
    /// the retry re-offers the unacked suffix, the watermark drops what
    /// was already stashed, and the stash survives the retry.
    fn exchange_control(&mut self, fin: bool) -> Result<SessionStatsWire, ClientError> {
        let control = if fin { Frame::Fin } else { Frame::Flush };
        let stats = self.with_resilience(|c| {
            proto::write_frame(c.stream.get_mut(), &control)?;
            let mut hb_acked = 0u64;
            let r = read_events_and_stats(&mut c.stream, c.events_seen, |a| {
                hb_acked = hb_acked.max(a)
            });
            c.note_acked(hb_acked);
            let (fresh, stats, offered) = r?;
            c.pending_events.extend(fresh);
            c.events_seen = c.events_seen.max(offered);
            // Tell the server delivery landed so it can advance its
            // cursor (and, when journaled, compact). If this write is
            // lost the server merely re-offers on the next exchange.
            proto::write_frame(c.stream.get_mut(), &Frame::EventsAck { seq: offered })?;
            Ok(stats)
        })?;
        self.note_acked(stats.acked_seq);
        Ok(stats)
    }

    /// Performs a FLUSH whose reply is **lost**: the server runs the
    /// flush and writes the full reply, but this client discards it
    /// without consuming events or acknowledging, then severs the
    /// connection — a test hook landing the failure in the exact window
    /// between server-side delivery and client-side receipt. The next
    /// operation resumes and the unacked events are redelivered.
    ///
    /// # Errors
    ///
    /// Propagates transport failures from the doomed exchange itself
    /// (no resilience: this *is* the fault injector).
    pub fn flush_lost_reply(&mut self) -> Result<(), ClientError> {
        proto::write_frame(self.stream.get_mut(), &Frame::Flush)?;
        // Read the whole reply so the server has demonstrably completed
        // the delivery attempt, then throw it away un-acked.
        let mut hb_acked = 0u64;
        let _ = read_events_and_stats(&mut self.stream, self.events_seen, |a| {
            hb_acked = hb_acked.max(a)
        })?;
        self.note_acked(hb_acked);
        self.drop_connection();
        Ok(())
    }

    /// Re-points the client at a (possibly restarted) server address and
    /// severs the current connection; the next operation reconnects
    /// there and resumes the session. Used when a `--journal` server is
    /// restarted on a fresh port.
    ///
    /// # Errors
    ///
    /// Fails only on address resolution.
    pub fn redirect<A: ToSocketAddrs>(&mut self, addr: A) -> Result<(), ClientError> {
        self.addrs = addr.to_socket_addrs()?.collect();
        self.drop_connection();
        Ok(())
    }
}

/// A blocking watch subscription: polls the server's finalized-event
/// tail and aggregate stats.
#[derive(Debug)]
pub struct WatchClient {
    stream: Link,
    cursor: u64,
    addrs: Vec<SocketAddr>,
    cfg: ClientConfig,
    rng: u64,
    reconnects: u64,
    tail_resets: u64,
}

impl WatchClient {
    /// Connects in watch mode (no session, no detector) with default
    /// resilience knobs.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or protocol violations.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<WatchClient, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// [`WatchClient::connect`] with explicit [`ClientConfig`] knobs.
    ///
    /// # Errors
    ///
    /// As [`WatchClient::connect`].
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        cfg: ClientConfig,
    ) -> Result<WatchClient, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut stream = connect_stream(&addrs, cfg.read_timeout)?;
        handshake(&mut stream, Self::watch_hello())?;
        Ok(WatchClient {
            stream,
            cursor: 0,
            addrs,
            rng: 0x9E37_79B9_7F4A_7C15,
            reconnects: 0,
            tail_resets: 0,
            cfg,
        })
    }

    fn watch_hello() -> Hello {
        Hello {
            sample_rate_hz: 1.0,
            clock_hz: 1.0,
            config: EmprofConfig::for_rates(1.0, 1.0),
            device: "watch".into(),
            watch: true,
            proxied: false,
            resume_session_id: 0,
            resume_token: 0,
        }
    }

    /// How many times this watch reconnected after a transport loss.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// How many times the server answered with a cursor *behind* this
    /// client's — the signature of a restarted server whose tail buffer
    /// started over. The client adopts the server's cursor (it has no
    /// other choice) but counts the regression here instead of silently
    /// rewinding, so a tailer can tell "quiet stream" from "history
    /// lost".
    pub fn tail_resets(&self) -> u64 {
        self.tail_resets
    }

    /// Severs the TCP connection without telling the server — a test
    /// hook simulating a transport loss. The next poll reconnects with
    /// the same cursor.
    pub fn drop_connection(&mut self) {
        let _ = self.stream.get_ref().shutdown(std::net::Shutdown::Both);
    }

    /// One poll: events finalized since the last poll plus server-wide
    /// stats. The cursor advances automatically; a transport loss is
    /// cured by reconnecting and re-polling from the same cursor, so no
    /// tail position is lost.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures once the reconnect
    /// budget is spent.
    pub fn poll(&mut self) -> Result<Tail, ClientError> {
        let mut attempts = 0u32;
        loop {
            match self.poll_once() {
                Ok(tail) => {
                    if tail.cursor < self.cursor {
                        // A restarted server's tail starts over; adopt
                        // its cursor but never *silently* — the caller
                        // can see the discontinuity via tail_resets().
                        self.tail_resets += 1;
                        obs::counter_add!("client.tail_resets", 1);
                    }
                    self.cursor = tail.cursor;
                    return Ok(tail);
                }
                Err(e) if e.is_transport() && attempts < self.cfg.max_reconnects => {
                    attempts += 1;
                    self.reconnect(e)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn poll_once(&mut self) -> Result<Tail, ClientError> {
        proto::write_frame(
            self.stream.get_mut(),
            &Frame::Watch {
                cursor: self.cursor,
            },
        )?;
        match read_reply(&mut self.stream, |_| {})? {
            Frame::Tail(tail) => Ok(tail),
            _ => Err(ClientError::Unexpected("wanted TAIL")),
        }
    }

    /// Reconnects with backoff, keeping the tail cursor. Spending the
    /// budget yields [`ClientError::ReconnectFailed`] seeded with
    /// `cause` (the error that forced the reconnect).
    fn reconnect(&mut self, cause: ClientError) -> Result<(), ClientError> {
        let mut last = cause;
        for attempt in 0..self.cfg.max_reconnects {
            std::thread::sleep(jittered(&mut self.rng, backoff_delay(&self.cfg, attempt)));
            match connect_stream(&self.addrs, self.cfg.read_timeout)
                .map_err(ClientError::from)
                .and_then(|mut s| handshake(&mut s, Self::watch_hello()).map(|_| s))
            {
                Ok(stream) => {
                    self.stream = stream;
                    self.reconnects += 1;
                    obs::counter_add!("client.reconnects", 1);
                    return Ok(());
                }
                Err(e) if e.is_transport() => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(ClientError::ReconnectFailed {
            attempts: self.cfg.max_reconnects,
            last: Box::new(last),
        })
    }
}

/// A blocking observability poller: fetches METRICS, HEALTH, and
/// FLIGHT snapshots from an `emprof-serve` instance. Backs `emprof
/// top` and `emprof dump-flight`.
///
/// Metrics connections skip the HELLO handshake — the first request
/// frame identifies the connection as a poller — and the server
/// records no telemetry while serving them, so polling never perturbs
/// the numbers it reports.
#[derive(Debug)]
pub struct MetricsClient {
    stream: Link,
    addrs: Vec<SocketAddr>,
    cfg: ClientConfig,
    rng: u64,
    reconnects: u64,
}

impl MetricsClient {
    /// Connects with default resilience knobs. The TCP connection is
    /// established eagerly (so bad addresses fail here), but nothing is
    /// sent until the first fetch.
    ///
    /// # Errors
    ///
    /// Fails on address resolution or connection errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<MetricsClient, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// [`MetricsClient::connect`] with explicit [`ClientConfig`] knobs.
    ///
    /// # Errors
    ///
    /// As [`MetricsClient::connect`].
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        cfg: ClientConfig,
    ) -> Result<MetricsClient, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = connect_stream(&addrs, cfg.read_timeout)?;
        Ok(MetricsClient {
            stream,
            addrs,
            rng: 0xD1B5_4A32_D192_ED03,
            reconnects: 0,
            cfg,
        })
    }

    /// How many times this poller reconnected after a transport loss.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Severs the TCP connection without telling the server — a test
    /// hook simulating a transport loss. The next fetch reconnects.
    pub fn drop_connection(&mut self) {
        let _ = self.stream.get_ref().shutdown(std::net::Shutdown::Both);
    }

    /// One METRICS poll: the server's full telemetry snapshot, its
    /// wire-stats, and one row per registered session.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures once the reconnect
    /// budget is spent.
    pub fn fetch_metrics(&mut self) -> Result<MetricsReply, ClientError> {
        match self.request(&Frame::MetricsRequest)? {
            Frame::Metrics(reply) => Ok(reply),
            _ => Err(ClientError::Unexpected("wanted METRICS")),
        }
    }

    /// One HEALTH poll.
    ///
    /// # Errors
    ///
    /// As [`MetricsClient::fetch_metrics`].
    pub fn fetch_health(&mut self) -> Result<HealthWire, ClientError> {
        match self.request(&Frame::HealthRequest)? {
            Frame::Health(health) => Ok(health),
            _ => Err(ClientError::Unexpected("wanted HEALTH")),
        }
    }

    /// Fetches flight-recorder dumps: `session_id` 0 means every
    /// registered session, anything else just that one (an unknown id
    /// yields an empty list, not an error).
    ///
    /// # Errors
    ///
    /// As [`MetricsClient::fetch_metrics`].
    pub fn fetch_flight(&mut self, session_id: u64) -> Result<Vec<FlightDumpWire>, ClientError> {
        match self.request(&Frame::FlightRequest { session_id })? {
            Frame::FlightReply { dumps } => Ok(dumps),
            _ => Err(ClientError::Unexpected("wanted FLIGHT_REPLY")),
        }
    }

    /// One NODE_HEALTH poll: the node's own cluster health row. The
    /// probe frame behind the router's mark-down/mark-up machinery.
    ///
    /// # Errors
    ///
    /// As [`MetricsClient::fetch_metrics`].
    pub fn fetch_node_health(&mut self) -> Result<NodeHealthWire, ClientError> {
        match self.request(&Frame::NodeHealthRequest)? {
            Frame::NodeHealthReply(node) => Ok(node),
            _ => Err(ClientError::Unexpected("wanted NODE_HEALTH reply")),
        }
    }

    /// One CLUSTER_STATE poll: the full membership/health table as the
    /// polled node (typically a router) knows it.
    ///
    /// # Errors
    ///
    /// As [`MetricsClient::fetch_metrics`].
    pub fn fetch_cluster_state(&mut self) -> Result<Vec<NodeHealthWire>, ClientError> {
        match self.request(&Frame::ClusterStateRequest)? {
            Frame::ClusterStateReply { nodes } => Ok(nodes),
            _ => Err(ClientError::Unexpected("wanted CLUSTER_STATE reply")),
        }
    }

    /// Sends a CLUSTER_JOIN (join/leave/drain) and returns the node's
    /// health row after the change was applied.
    ///
    /// # Errors
    ///
    /// As [`MetricsClient::fetch_metrics`]; a node that refuses the
    /// change answers with an ERROR frame, surfaced as
    /// [`ClientError::Server`].
    pub fn cluster_join(
        &mut self,
        name: &str,
        addr: &str,
        action: ClusterAction,
    ) -> Result<NodeHealthWire, ClientError> {
        let req = Frame::ClusterJoin {
            name: name.into(),
            addr: addr.into(),
            action,
        };
        match self.request(&req)? {
            Frame::NodeHealthReply(node) => Ok(node),
            _ => Err(ClientError::Unexpected("wanted NODE_HEALTH reply")),
        }
    }

    /// One journal range query against the polled node (or, through a
    /// router, the whole fleet — the router merges per-backend results
    /// and `nodes` reports how many contributed).
    ///
    /// # Errors
    ///
    /// As [`MetricsClient::fetch_metrics`]; a node that keeps no
    /// journal answers with an ERROR frame, surfaced as
    /// [`ClientError::Server`].
    pub fn query(&mut self, spec: &QuerySpecWire) -> Result<QueryResultWire, ClientError> {
        match self.request(&Frame::Query(spec.clone()))? {
            Frame::QueryResult(result) => Ok(result),
            _ => Err(ClientError::Unexpected("wanted QUERY_RESULT")),
        }
    }

    /// One request/reply round trip, curing transport failures by
    /// reconnecting (polling is stateless, so a retry is always safe).
    fn request(&mut self, req: &Frame) -> Result<Frame, ClientError> {
        let mut attempts = 0u32;
        loop {
            match self.request_once(req) {
                Ok(frame) => return Ok(frame),
                Err(e) if e.is_transport() && attempts < self.cfg.max_reconnects => {
                    attempts += 1;
                    self.reconnect(e)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn request_once(&mut self, req: &Frame) -> Result<Frame, ClientError> {
        proto::write_frame(self.stream.get_mut(), req)?;
        read_reply(&mut self.stream, |_| {})
    }

    fn reconnect(&mut self, cause: ClientError) -> Result<(), ClientError> {
        let mut last = cause;
        for attempt in 0..self.cfg.max_reconnects {
            std::thread::sleep(jittered(&mut self.rng, backoff_delay(&self.cfg, attempt)));
            match connect_stream(&self.addrs, self.cfg.read_timeout) {
                Ok(stream) => {
                    self.stream = stream;
                    self.reconnects += 1;
                    obs::counter_add!("client.reconnects", 1);
                    return Ok(());
                }
                Err(e) => last = ClientError::Io(e),
            }
        }
        Err(ClientError::ReconnectFailed {
            attempts: self.cfg.max_reconnects,
            last: Box::new(last),
        })
    }
}
