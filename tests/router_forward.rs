//! The router forwards SAMPLES frames as the bytes they arrived in, so
//! these tests pin what that must not cost:
//!
//! - every frame is still verified before it is forwarded: a SAMPLES
//!   frame with one payload bit flipped is answered with an ERROR
//!   (checksum) and never reaches the backend;
//! - a session whose sample numbering the router translates (after a
//!   migration without a journal, `seq_offset != 0`) has its frames
//!   renumbered, not garbled: the new owner serves exactly the events a
//!   batch run over the samples it was sent finds.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use emprof::core::{Emprof, EmprofConfig, StallEvent};
use emprof::router::{BackendSpec, Router, RouterConfig};
use emprof::serve::proto::{self, Hello, HEADER_LEN};
use emprof::serve::{ErrorCode, Frame, MetricsClient, ProfileClient, ServeConfig, Server};

const FS: f64 = 40e6;
const CLK: f64 = 1.0e9;

fn config() -> EmprofConfig {
    EmprofConfig::for_rates(FS, CLK)
}

fn batch_events(signal: &[f64]) -> Vec<StallEvent> {
    Emprof::new(config())
        .profile_magnitude(signal, FS, CLK)
        .events()
        .to_vec()
}

/// A busy level with `dips` evenly spaced dips of varying depth.
fn signal(len: usize, dips: usize) -> Vec<f64> {
    let mut s: Vec<f64> = (0..len)
        .map(|i| 5.0 + ((i * 2_654_435_761) % 997) as f64 / 3000.0)
        .collect();
    let spacing = len / (dips + 1);
    for d in 0..dips {
        let at = spacing * (d + 1);
        let width = 24 + (d * 37) % 100;
        for x in &mut s[at..at + width] {
            *x = 0.4 + (d % 5) as f64 * 0.2;
        }
    }
    s
}

/// Backends without journals behind one router.
fn fleet(n: usize) -> (Vec<Server>, Router) {
    let backends: Vec<Server> = (0..n)
        .map(|_| Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap())
        .collect();
    let specs = backends
        .iter()
        .enumerate()
        .map(|(i, b)| BackendSpec {
            name: format!("b{i}"),
            addr: b.local_addr().to_string(),
            journal_dir: None,
        })
        .collect();
    let router = Router::bind(
        "127.0.0.1:0",
        RouterConfig {
            backends: specs,
            probe_interval: Duration::from_millis(100),
            ..RouterConfig::default()
        },
    )
    .unwrap();
    (backends, router)
}

/// Reads frames until `want` matches one, skipping heartbeats.
fn read_until(stream: &mut TcpStream, want: impl Fn(&Frame) -> bool) -> Frame {
    loop {
        let frame = proto::read_frame(stream).expect("router reply");
        if want(&frame) {
            return frame;
        }
        assert!(
            matches!(frame, Frame::Events { .. } | Frame::Heartbeat { .. }),
            "unexpected frame {frame:?}"
        );
    }
}

/// Polls the backend until no connection is attached to its session:
/// its reader has consumed every byte the router ever sent it.
fn wait_detached(backend: &Server) {
    let mut metrics = MetricsClient::connect(backend.local_addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reply = metrics.fetch_metrics().unwrap();
        assert_eq!(reply.sessions.len(), 1, "one backend session");
        if !reply.sessions[0].connected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "router never dropped its backend leg"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn corrupted_samples_are_refused_before_forwarding() {
    let (backends, router) = fleet(1);
    let backend = &backends[0];
    let mut raw = TcpStream::connect(router.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    proto::write_frame(
        &mut raw,
        &Frame::Hello(Hello {
            sample_rate_hz: FS,
            clock_hz: CLK,
            config: config(),
            device: "raw".into(),
            watch: false,
            proxied: false,
            resume_session_id: 0,
            resume_token: 0,
        }),
    )
    .unwrap();
    read_until(&mut raw, |f| matches!(f, Frame::HelloAck { .. }));

    // One good frame, flushed through, so the backend has demonstrably
    // counted it.
    let samples = signal(5_000, 3);
    proto::write_frame(
        &mut raw,
        &Frame::Samples {
            seq: 1,
            samples: samples.clone(),
        },
    )
    .unwrap();
    proto::write_frame(&mut raw, &Frame::Flush).unwrap();
    match read_until(&mut raw, |f| matches!(f, Frame::Stats(_))) {
        Frame::Stats(stats) => assert_eq!(stats.acked_seq, 1),
        _ => unreachable!(),
    }
    let before = backend.stats();
    assert_eq!(before.frames_in, 1);
    assert_eq!(router.stats().frames_in, 1);

    // The next frame has one payload bit flipped (in its last sample).
    let mut bad = proto::encode_samples_frame(2, &samples);
    let last = bad.len() - 1;
    bad[last] ^= 0x01;
    assert!(bad.len() > HEADER_LEN);
    std::io::Write::write_all(&mut raw, &bad).unwrap();
    match read_until(&mut raw, |f| matches!(f, Frame::Error { .. })) {
        Frame::Error { code, message } => {
            assert_eq!(code, ErrorCode::Checksum, "{message}");
            assert_eq!(code as u16, 3);
        }
        _ => unreachable!(),
    }

    // The router gives up the session's backend leg after the error;
    // once the backend's reader has seen everything it was sent, its
    // counters must not have moved.
    wait_detached(backend);
    let after = backend.stats();
    assert_eq!(
        after.frames_in, before.frames_in,
        "a corrupt frame reached the backend"
    );
    assert_eq!(after.samples_in, before.samples_in);
    assert_eq!(
        router.stats().frames_in,
        1,
        "the router counted a corrupt frame"
    );

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn renumbered_frames_after_a_lossy_migration_equal_batch() {
    let (mut backends, router) = fleet(2);
    let first = signal(60_000, 12);
    let second = signal(80_000, 17);
    let mut client =
        ProfileClient::connect(router.local_addr(), "renumber", config(), FS, CLK).unwrap();
    for chunk in first.chunks(2_500) {
        client.send(chunk).unwrap();
    }
    // Every frame of the first leg is acknowledged by its owner, so the
    // migration below bridges at a non-zero sequence offset.
    let (_, stats) = client.flush().unwrap();
    assert_eq!(stats.acked_seq, 24);
    let owner = backends
        .iter()
        .position(|b| b.sessions_active() == 1)
        .expect("one owner");
    backends.remove(owner).kill();

    // No journal: the router opens a fresh session on the other backend
    // and renumbers the client's frames 25.. as 1.. for it.
    for chunk in second.chunks(2_500) {
        client.send(chunk).unwrap();
    }
    let (events, stats) = client.finish().unwrap();
    assert!(stats.final_report);
    assert_eq!(
        stats.acked_seq,
        24 + 32,
        "acks are translated back to client numbering"
    );
    assert_eq!(
        events,
        batch_events(&second),
        "the new owner must see exactly the second leg, in order"
    );
    let survivor = backends[0].stats();
    assert_eq!(survivor.samples_in, second.len() as u64);
    assert_eq!(survivor.frames_in, 32);

    let rstats = router.shutdown();
    assert_eq!(rstats.migrations_lossy, 1);
    for b in backends {
        b.shutdown();
    }
}
