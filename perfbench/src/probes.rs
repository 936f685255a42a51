//! Layer probes for the traced run: the frame codec, the streaming
//! detector and the session journal, each timed alone on the same
//! frames the `fleet_ingest` leg sends.

use std::path::Path;
use std::time::Instant;

use emprof_core::{Emprof, StallEvent, StreamingEmprof};
use emprof_serve::proto::{decode_frame_view, encode_frame};
use emprof_serve::{Frame, QueryResultWire};
use emprof_store::{JournalConfig, SessionJournal, SessionMeta};

use crate::ingest::{config, CLK, FRAME, FS};

/// Frames the fsync-per-append journal probe writes; each costs a disk
/// flush, so the probe stays short.
const SYNC_FRAMES: usize = 100;

/// Batch and streaming detector throughput on one capture, Msamples/s,
/// and the events streaming finalized per frame.
pub struct DetectorProbe {
    pub batch_msps: f64,
    pub stream_msps: f64,
    pub per_frame_events: Vec<Vec<StallEvent>>,
}

pub fn detector(signal: &[f64]) -> DetectorProbe {
    let t0 = Instant::now();
    let batch = Emprof::new(config()).profile_magnitude(signal, FS, CLK);
    let batch_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(batch.events().len());

    let mut per_frame_events = Vec::new();
    let mut streaming = StreamingEmprof::new(config(), FS, CLK);
    let t0 = Instant::now();
    for frame in signal.chunks(FRAME) {
        streaming.extend_from_slice(frame);
        per_frame_events.push(streaming.drain_events());
    }
    let stream_s = t0.elapsed().as_secs_f64();
    let msps = |s: f64| signal.len() as f64 / s / 1e6;
    DetectorProbe {
        batch_msps: msps(batch_s),
        stream_msps: msps(stream_s),
        per_frame_events,
    }
}

/// Mean `encode_frame` and `decode_frame_view` time in ns over the
/// SAMPLES frames of `signal` and the QUERY_RESULT frames of `replies`.
pub fn codec(signal: &[f64], replies: &[QueryResultWire]) -> (f64, f64) {
    let frames: Vec<Frame> = signal
        .chunks(FRAME)
        .enumerate()
        .map(|(i, c)| Frame::Samples {
            seq: i as u64 + 1,
            samples: c.to_vec(),
        })
        .chain(replies.iter().cloned().map(Frame::QueryResult))
        .collect();
    let (mut enc_ns, mut dec_ns) = (0u128, 0u128);
    for frame in &frames {
        let t0 = Instant::now();
        let bytes = encode_frame(frame);
        let t1 = Instant::now();
        let (view, used) = decode_frame_view(&bytes).expect("decode what was encoded");
        let t2 = Instant::now();
        assert_eq!(used, bytes.len(), "frame decoded to its end");
        std::hint::black_box(view);
        enc_ns += (t1 - t0).as_nanos();
        dec_ns += (t2 - t1).as_nanos();
    }
    let n = frames.len().max(1) as f64;
    (enc_ns as f64 / n, dec_ns as f64 / n)
}

/// Per-call `SessionJournal` append times in µs.
pub struct StoreProbe {
    pub append_samples_us: f64,
    pub append_samples_sync_us: f64,
    pub append_events_us: f64,
    pub bytes_written: u64,
}

fn meta() -> SessionMeta {
    SessionMeta {
        session_id: 1,
        resume_token: 1,
        sample_rate_hz: FS,
        clock_hz: CLK,
        config: config(),
        device: "probe".into(),
    }
}

/// Journals every frame of `signal` and the events finalized with it,
/// as a journaled session does, then the first frames again with an
/// fsync per append.
pub fn store(dir: &Path, signal: &[f64], per_frame_events: &[Vec<StallEvent>]) -> StoreProbe {
    let mut j = SessionJournal::create(&dir.join("plain"), meta(), JournalConfig::default())
        .expect("create probe journal");
    let (mut samples_ns, mut events_ns, mut event_calls) = (0u128, 0u128, 0u64);
    let mut next_event = 1u64;
    let frames: Vec<&[f64]> = signal.chunks(FRAME).collect();
    for (i, (frame, events)) in frames.iter().zip(per_frame_events).enumerate() {
        let t0 = Instant::now();
        j.append_samples(i as u64 + 1, frame)
            .expect("append samples");
        samples_ns += t0.elapsed().as_nanos();
        if !events.is_empty() {
            let t0 = Instant::now();
            j.append_events(next_event, events).expect("append events");
            events_ns += t0.elapsed().as_nanos();
            event_calls += 1;
            next_event += events.len() as u64;
        }
    }
    let bytes_written = j.stats().bytes;

    let sync_cfg = JournalConfig {
        sync_on_append: true,
        ..JournalConfig::default()
    };
    let mut js =
        SessionJournal::create(&dir.join("sync"), meta(), sync_cfg).expect("create sync journal");
    let t0 = Instant::now();
    for (i, frame) in frames.iter().take(SYNC_FRAMES).enumerate() {
        js.append_samples(i as u64 + 1, frame)
            .expect("append samples with fsync");
    }
    let sync_ns = t0.elapsed().as_nanos();
    let us = |ns: u128, n: usize| ns as f64 / n.max(1) as f64 / 1e3;
    StoreProbe {
        append_samples_us: us(samples_ns, frames.len()),
        append_samples_sync_us: us(sync_ns, frames.len().min(SYNC_FRAMES)),
        append_events_us: us(events_ns, event_calls as usize),
        bytes_written,
    }
}
