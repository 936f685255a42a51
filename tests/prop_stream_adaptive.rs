//! Property-based equivalence of adaptive streaming and adaptive batch.
//!
//! The adaptive (calibrated) streaming detector runs the same resumable
//! kernel under the same causal block schedule as the batch detector, but
//! it advances wherever a frame happens to end, never at a block
//! boundary by design. This suite feeds it arbitrary chunkings (1 to 5000
//! samples, drained after every chunk) of drifting signals with NaN/±inf
//! injected, and checks three things: the finished profile is the batch
//! profile, confidence marks included; the degraded counts agree; and
//! every event drained live is final, a prefix of the finished profile.

use emprof::core::{CalibConfig, Emprof, EmprofConfig, StreamingEmprof};
use proptest::prelude::*;

const FS: f64 = 40e6;
const CLK: f64 = 1.0e9;

/// Adaptive detection with a calibration block of `block` samples (`0`:
/// the normalization window).
fn adaptive_config(block: usize) -> EmprofConfig {
    let mut cfg = EmprofConfig::for_rates(FS, CLK);
    cfg.calib = CalibConfig {
        block_samples: block,
        ..CalibConfig::adaptive()
    };
    cfg
}

/// Busy/dip segments under a gain that ramps from 1 down to `floor`
/// over the first quarter and wobbles ±40% every `period` samples, plus a
/// receiver noise floor of span `noise` added after the gain: the
/// schedule raises its threshold, shrinks its window where the wobble
/// is fast, and degrades where the noise swamps the attenuated contrast.
/// Non-finite samples are inserted at the given positions (modulo the
/// length).
fn build_signal(
    segments: &[(u16, u16, u8)],
    floor: f64,
    period: usize,
    noise: f64,
    bad: &[(u32, u8)],
) -> Vec<f64> {
    let mut s = Vec::new();
    for (i, &(gap, dip, depth)) in segments.iter().enumerate() {
        let dip_level = 0.3 + (depth as f64 / 255.0) * 1.2;
        for k in 0..3 + gap as usize % 2500 {
            s.push(5.0 + (((i * 131 + k) * 2654435761) % 997) as f64 / 3000.0);
        }
        for k in 0..dip as usize % 160 {
            s.push(dip_level + (((i * 137 + k) * 2654435761) % 997) as f64 / 5000.0);
        }
    }
    s.extend(std::iter::repeat_n(5.0, 500));
    let n = s.len() as f64;
    for (i, v) in s.iter_mut().enumerate() {
        let ramp = (4.0 * i as f64 / n).min(1.0);
        let wobble = 1.0 + 0.4 * (std::f64::consts::TAU * i as f64 / period as f64).sin();
        *v *= (1.0 - (1.0 - floor) * ramp) * wobble;
        *v += noise * ((i * 2_654_435_761) % 1000) as f64 / 1000.0;
    }
    for &(at, kind) in bad {
        let at = at as usize % (s.len() + 1);
        s.insert(
            at,
            [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind as usize % 3],
        );
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chunked_adaptive_stream_with_drains_equals_batch(
        segments in prop::collection::vec((any::<u16>(), any::<u16>(), any::<u8>()), 1..40),
        decay_milli in 500u32..950,
        period in 4_000usize..40_000,
        noise_milli in 0u32..1_500,
        bad in prop::collection::vec((any::<u32>(), any::<u8>()), 0..12),
        block in 0usize..6_000,
        chunks in prop::collection::vec((0u32..14, any::<u16>()), 1..8),
    ) {
        let floor = 1.0 - decay_milli as f64 / 1000.0;
        let noise = noise_milli as f64 / 1000.0;
        let signal = build_signal(&segments, floor, period, noise, &bad);
        // A quarter of the cases keep the default block (the window).
        let cfg = adaptive_config(if block < 1_500 { 0 } else { block });
        // Chunk sizes 1..=5000, spread over every scale.
        let chunks: Vec<usize> = chunks
            .iter()
            .map(|&(bits, r)| (1 + r as usize % (1 << bits)).min(5_000))
            .collect();
        let batch = Emprof::new(cfg).profile_magnitude(&signal, FS, CLK);

        let mut stream = StreamingEmprof::new(cfg, FS, CLK);
        let mut live = Vec::new();
        let mut rest = &signal[..];
        for &size in chunks.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(size.min(rest.len()));
            stream.extend_from_slice(chunk);
            stream.drain_events_into(&mut live);
            rest = tail;
        }
        prop_assert_eq!(stream.samples_rejected(), bad.len());
        let profile = stream.finish();

        prop_assert!(live.len() <= profile.events().len());
        prop_assert_eq!(&live[..], &profile.events()[..live.len()]);
        prop_assert_eq!(&profile, &batch);
        prop_assert_eq!(profile.degraded_count(), batch.degraded_count());
    }
}
