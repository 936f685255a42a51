//! Criterion bench: EMPROF detector throughput.
//!
//! The paper's workflow profiles captures of seconds of execution
//! (hundreds of millions of samples), so the detector's per-sample cost —
//! normalization plus dip extraction — is what bounds offline analysis
//! turnaround. Each mode (static, adaptive) gets a batch row and a
//! streaming row fed the way the server feeds it: `extend_from_slice` in
//! 2500-sample frames, with a `drain_events_into` after each. The ratio of
//! the two rows is the stream/batch ratio of that mode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use emprof_core::{CalibConfig, Emprof, EmprofConfig, StreamingEmprof};

const FS: f64 = 40e6;
const CLK: f64 = 1.0e9;
/// Samples per SAMPLES frame in the serve ingest path.
const FRAME: usize = 2500;

/// A busy signal with one stall dip per thousand samples.
fn synthetic_magnitude(len: usize) -> Vec<f64> {
    let mut s: Vec<f64> = (0..len)
        .map(|i| 5.0 + 0.2 * ((i % 97) as f64 / 97.0 - 0.5))
        .collect();
    let mut i = 500;
    while i + 12 < len {
        for v in s.iter_mut().skip(i).take(12) {
            *v = 0.9;
        }
        i += 1000;
    }
    s
}

fn bench_detector(c: &mut Criterion) {
    let mut group = c.benchmark_group("emprof_detector");
    let static_config = EmprofConfig::for_rates(FS, CLK);
    let mut adaptive_config = static_config;
    adaptive_config.calib = CalibConfig::adaptive();
    for &len in &[100_000usize, 1_000_000] {
        let signal = synthetic_magnitude(len);
        group.throughput(Throughput::Elements(len as u64));
        for (mode, config) in [("static", static_config), ("adaptive", adaptive_config)] {
            let emprof = Emprof::new(config);
            let batch_id = if mode == "static" {
                // The historical row name, kept so results stay comparable.
                BenchmarkId::new("profile_magnitude", len)
            } else {
                BenchmarkId::new("profile_magnitude_adaptive", len)
            };
            group.bench_with_input(batch_id, &signal, |b, s| {
                b.iter(|| emprof.profile_magnitude(s, FS, CLK));
            });
            group.bench_with_input(
                BenchmarkId::new(format!("stream_{mode}"), len),
                &signal,
                |b, s| {
                    let mut drained = Vec::new();
                    b.iter(|| {
                        let mut stream = StreamingEmprof::new(config, FS, CLK);
                        drained.clear();
                        for frame in s.chunks(FRAME) {
                            stream.extend_from_slice(frame);
                            stream.drain_events_into(&mut drained);
                        }
                        stream.finish()
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_detector
}
criterion_main!(benches);
