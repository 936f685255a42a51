//! `fleet_ingest` leg: an open loop of rig sessions streaming through
//! an in-process `Router` to one journaled `Server`.
//!
//! Every sample crosses the wire codec twice, the router hop, the
//! session queue, `StreamingEmprof` and the journal append before the
//! flush that acknowledges it returns. Each session replays its seeded
//! capture at a fixed sample rate as one backend session per capture
//! (connect, stream, FIN), flushing after every frame.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use emprof_core::{Emprof, EmprofConfig, StallEvent};
use emprof_router::{BackendSpec, Router, RouterConfig};
use emprof_serve::{ClientConfig, ProfileClient, ServeConfig, Server};

use crate::report::Tally;
use crate::rng::Rng;
use crate::schedule::Schedule;
use crate::trace::Tracer;

/// Nominal capture rate and core clock the detector is configured for.
pub const FS: f64 = 40e6;
pub const CLK: f64 = 1.0e9;
/// Concurrent rig sessions (one connection and one generator thread
/// each; never more than the two cores the benchmark was sized on).
pub const SESSIONS: usize = 2;
/// Replay rate per session. The aggregate, 1.25 Msamples/s, is about a
/// seventh of what a routed journaled session acks on a 2-vCPU Xeon. On
/// the shared host the benchmark was sized on, hypervisor steal reached
/// 40% of CPU time for seconds at a time; at twice this rate such
/// episodes sometimes left the loop tens of milliseconds behind for the
/// rest of a run.
pub const SAMPLES_PER_S: f64 = 0.625e6;
/// Samples per SAMPLES frame: 4 ms of replay, the flush cadence.
pub const FRAME: usize = 2_500;
/// Samples per capture; a session per capture, 1 s of replay each.
pub const CAPTURE: usize = 625_000;
/// Samples per latency window: a quarter second of the schedule, about
/// 350 events over both sessions. Tail latency is taken per window, so a
/// burst of outside load spoils the windows it covers, not a whole round.
pub const WINDOW: usize = 156_250;
/// A frame whose flush returns later than this after the frame was due
/// counts as failed.
pub const FRAME_LIMIT: Duration = Duration::from_millis(250);

pub fn config() -> EmprofConfig {
    EmprofConfig::for_rates(FS, CLK)
}

pub fn client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    }
}

/// A seeded synthetic dip train: a busy level near 5 with gaps of
/// 200..1400 samples between dips 24..144 samples wide at levels
/// 0.3..1.5, so about one stall per 880 samples (about 1130 per
/// Msample). Gaps stay below the detector's 2000-sample normalization
/// window, so every window holds a dip and busy-level noise never
/// normalizes down to the threshold.
pub fn dip_train(mut rng: Rng, len: usize) -> Vec<f64> {
    let mut s = Vec::with_capacity(len);
    while s.len() < len {
        let gap = 200 + rng.below(1_200) as usize;
        let dip = 24 + rng.below(120) as usize;
        let level = 0.3 + rng.unit() * 1.2;
        for _ in 0..gap {
            s.push(5.0 + rng.unit() / 3.0);
        }
        for _ in 0..dip {
            s.push(level + rng.unit() / 5.0);
        }
    }
    s.truncate(len);
    s
}

pub fn batch_events(signal: &[f64]) -> Vec<StallEvent> {
    Emprof::new(config())
        .profile_magnitude(signal, FS, CLK)
        .events()
        .to_vec()
}

/// The ingest tier: a journaled backend behind a router.
pub struct Fleet {
    pub server: Server,
    pub router: Router,
    /// Per session: its capture and the batch detector's events on it.
    pub captures: Vec<(Vec<f64>, Vec<StallEvent>)>,
}

impl Fleet {
    pub fn start(rng: &Rng, journal_dir: &Path) -> std::io::Result<Fleet> {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                journal_dir: Some(journal_dir.to_path_buf()),
                ..ServeConfig::default()
            },
        )?;
        let router = Router::bind(
            "127.0.0.1:0",
            RouterConfig {
                backends: vec![BackendSpec {
                    name: "b0".into(),
                    addr: server.local_addr().to_string(),
                    journal_dir: Some(journal_dir.to_path_buf()),
                }],
                ..RouterConfig::default()
            },
        )?;
        let captures = (0..SESSIONS)
            .map(|k| {
                let signal = dip_train(rng.fork(0x1A6E + k as u64), CAPTURE);
                let events = batch_events(&signal);
                (signal, events)
            })
            .collect();
        Ok(Fleet {
            server,
            router,
            captures,
        })
    }

    pub fn shutdown(self) {
        self.router.shutdown();
        self.server.shutdown();
    }
}

/// What one leg measured.
#[derive(Debug, Default)]
pub struct IngestOut {
    /// Latency of every acked event, ms, per [`WINDOW`] of the schedule:
    /// from when the frame whose flush returned it was due to when the
    /// client holds it.
    pub event_latency_ms: Vec<Vec<f64>>,
    /// How late the generator sent each frame, ms.
    pub gen_lag_ms: Vec<f64>,
    /// Each flush's round trip, ms.
    pub flush_rtt_ms: Vec<f64>,
    /// Time inside each `send`, ms.
    pub send_ms: Vec<f64>,
    /// Whole-process CPU seconds per round, sampled at the round
    /// boundaries of the schedule.
    pub round_cpu_s: Vec<f64>,
}

/// Streams whole captures on every session until `budget` is used:
/// `floor(budget / capture time)` rounds of one capture per session, at
/// least one. Both sessions run round `r` in the same second of the
/// schedule.
pub fn run(
    fleet: &Fleet,
    addr: SocketAddr,
    budget: Duration,
    epoch: Instant,
    traced: bool,
    perturb: Option<&'static str>,
    tally: &mut Tally,
) -> (IngestOut, Vec<crate::trace::Span>) {
    let capture_s = CAPTURE as f64 / SAMPLES_PER_S;
    let rounds = ((budget.as_secs_f64() / capture_s).floor() as usize).max(1);
    let windows = (rounds * CAPTURE).div_ceil(WINDOW);
    // One schedule for every session, starting once all threads exist.
    let schedule = Schedule::new(Instant::now() + Duration::from_millis(50), SAMPLES_PER_S);
    let (outs, spans, round_cpu_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .captures
            .iter()
            .enumerate()
            .map(|(k, (signal, expect))| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced, epoch, 1 + k as u64).with_perturb(perturb);
                    let mut out = IngestOut {
                        event_latency_ms: vec![Vec::new(); windows],
                        ..IngestOut::default()
                    };
                    let mut tally = Tally::default();
                    for round in 0..rounds {
                        let op = ((k as u64) << 32) | round as u64;
                        stream_capture(
                            addr,
                            k,
                            signal,
                            expect,
                            &schedule,
                            round,
                            op,
                            &mut tracer,
                            &mut out,
                            &mut tally,
                        );
                    }
                    (out, tally, tracer.into_spans())
                })
            })
            .collect();
        // CPU at each round boundary; the last reading waits for the
        // sessions, so it includes the final flushes and FINs.
        let mut cpu = Vec::with_capacity(rounds + 1);
        for r in 0..rounds {
            let at = schedule.due((r * CAPTURE) as u64);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            cpu.push(crate::report::process_cpu_s());
        }
        let mut outs = Vec::new();
        let mut spans = Vec::new();
        for h in handles {
            let (out, t, s) = h.join().expect("session thread panicked");
            tally.merge(t);
            outs.push(out);
            spans.extend(s);
        }
        cpu.push(crate::report::process_cpu_s());
        (outs, spans, cpu.windows(2).map(|w| w[1] - w[0]).collect())
    });
    let mut total = IngestOut {
        event_latency_ms: vec![Vec::new(); windows],
        round_cpu_s,
        ..IngestOut::default()
    };
    for o in outs {
        for (all, mine) in total.event_latency_ms.iter_mut().zip(o.event_latency_ms) {
            all.extend(mine);
        }
        total.gen_lag_ms.extend(o.gen_lag_ms);
        total.flush_rtt_ms.extend(o.flush_rtt_ms);
        total.send_ms.extend(o.send_ms);
    }
    (total, spans)
}

/// One capture as one session: frames sent on schedule, a flush after
/// each, FIN at the end; the delivered events must equal batch.
#[allow(clippy::too_many_arguments)]
fn stream_capture(
    addr: SocketAddr,
    session: usize,
    signal: &[f64],
    expect: &[StallEvent],
    schedule: &Schedule,
    round: usize,
    op: u64,
    tracer: &mut Tracer,
    out: &mut IngestOut,
    tally: &mut Tally,
) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let first = (round * CAPTURE) as u64;
    let root = tracer.begin("ingest.open", op);
    let connected = tracer.span("serve.connect", op, || {
        ProfileClient::connect_with(
            addr,
            &format!("rig-{session}"),
            config(),
            FS,
            CLK,
            client_config(),
        )
    });
    tracer.end(root);
    let mut client = match connected {
        Ok(c) => c,
        Err(e) => {
            tally.wrong(format!("ingest session {session}: connect failed: {e}"));
            return;
        }
    };
    let mut got: Vec<StallEvent> = Vec::with_capacity(expect.len());
    // An event's latency runs from when the frame whose flush returned
    // it was due, so the detector's lookahead and the wait for the
    // frame to fill, both fixed by the schedule, are left out.
    let held = |events: Vec<StallEvent>,
                frame_start: u64,
                due: Instant,
                out: &mut IngestOut,
                got: &mut Vec<StallEvent>| {
        let late = ms(Schedule::lateness(due, Instant::now()));
        let window = &mut out.event_latency_ms[frame_start as usize / WINDOW];
        window.extend(std::iter::repeat_n(late, events.len()));
        got.extend(events);
    };
    let (mut frame_start, mut due) = (first, schedule.due(first));
    for (i, frame) in signal.chunks(FRAME).enumerate() {
        frame_start = first + (i * FRAME) as u64;
        due = schedule.frame_due(frame_start, frame.len() as u64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent_at = Instant::now();
        out.gen_lag_ms.push(ms(Schedule::lateness(due, sent_at)));
        let root = tracer.begin("ingest.frame", op);
        let sent = tracer.span("serve.send", op, || client.send(frame));
        let t_flush = Instant::now();
        out.send_ms.push(ms(t_flush - sent_at));
        let flushed = sent.and_then(|()| tracer.span("serve.flush", op, || client.flush()));
        let done = Instant::now();
        let ok = match flushed {
            Ok((events, _)) => {
                out.flush_rtt_ms.push(ms(done - t_flush));
                held(events, frame_start, due, out, &mut got);
                tally.op(done - due <= FRAME_LIMIT);
                true
            }
            Err(e) => {
                tally.wrong(format!("ingest session {session}: frame {i}: {e}"));
                false
            }
        };
        tracer.end(root);
        if !ok {
            return;
        }
    }
    let root = tracer.begin("ingest.close", op);
    let finished = tracer.span("serve.finish", op, || client.finish());
    tracer.end(root);
    match finished {
        // FIN follows the last frame at once; its events count from
        // that frame's due time.
        Ok((events, _)) => held(events, frame_start, due, out, &mut got),
        Err(e) => {
            tally.wrong(format!("ingest session {session}: finish: {e}"));
            return;
        }
    }
    if got != expect {
        tally.wrong(format!(
            "ingest session {session}: {} served events differ from {} batch events",
            got.len(),
            expect.len()
        ));
    } else {
        tally.op(true);
    }
}
