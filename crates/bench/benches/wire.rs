//! Wire codec: one SAMPLES frame the size a rig sends every 4 ms at
//! 0.625 Msamples/s (2500 samples, 20 KB of payload). Rows:
//!
//! - `encode_frame` — header, payload and both checksums, built in one
//!   buffer;
//! - `decode_frame_view` — header checks, payload CRC and bounds, with
//!   the samples left borrowed in the receive buffer (the server's and
//!   the router's ingest path);
//! - `payload_crc32` — the payload checksum alone over the same 20 KB.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use emprof_serve::proto::{decode_frame_view, encode_frame, FrameView, HEADER_LEN};
use emprof_serve::Frame;
use emprof_store::crc32;

const SAMPLES: usize = 2_500;

fn bench_wire(c: &mut Criterion) {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|i| 5.0 + (i as f64 * 1e-2).sin())
        .collect();
    let frame = Frame::Samples { seq: 1, samples };
    let bytes = encode_frame(&frame);
    let payload = &bytes[HEADER_LEN..];

    let mut g = c.benchmark_group("wire_samples");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_frame", |b| {
        b.iter(|| encode_frame(black_box(&frame)))
    });
    g.bench_function("decode_frame_view", |b| {
        b.iter(|| match decode_frame_view(black_box(&bytes)).unwrap() {
            (FrameView::Samples(v), used) => v.len() + used,
            (FrameView::Owned(_), _) => unreachable!("encoded a SAMPLES frame"),
        })
    });
    g.bench_function("payload_crc32", |b| b.iter(|| crc32(black_box(payload))));
    g.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
