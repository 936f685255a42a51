//! The EMPROF detector: normalization and dip extraction.

use std::borrow::Cow;

use emprof_obs as obs;
use emprof_par::Parallelism;
use emprof_sim::PowerTrace;

use crate::calib::{compute_schedule, mark_gap_degraded, BlockParams};
use crate::config::EmprofConfig;
use crate::driver::{BlockDriver, StitchedRuns};
use crate::profile::{Confidence, Profile, StallEvent, StallKind};

/// The EMPROF profiler (Section IV of the paper).
///
/// Stateless apart from its configuration: the detector needs no training
/// and no a-priori knowledge of the profiled program, which is what lets
/// the paper profile boot sequences before any software infrastructure is
/// up (Section VI-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Emprof {
    config: EmprofConfig,
}

impl Emprof {
    /// Creates a profiler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`EmprofConfig::validate`].
    pub fn new(config: EmprofConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid EMPROF configuration: {e}"));
        Emprof { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> EmprofConfig {
        self.config
    }

    /// Profiles a magnitude signal sampled at `sample_rate_hz` from a core
    /// clocked at `clock_hz`.
    ///
    /// This is the heart of EMPROF: moving-min/max normalization, then a
    /// duration-filtered threshold detector over the normalized signal.
    ///
    /// Non-finite samples (NaN, ±inf) are dropped before normalization —
    /// a single NaN would otherwise poison every moving min/max window
    /// that sees it. The detector runs on the surviving subsequence, so
    /// event indices are positions within the *accepted* samples and the
    /// profile's `total_samples` counts accepted samples only; rejections
    /// surface on the `detect.samples_rejected` counter. This is the same
    /// policy [`crate::StreamingEmprof::push`] applies, keeping batch and
    /// streaming results identical on any input.
    pub fn profile_magnitude(
        &self,
        magnitude: &[f64],
        sample_rate_hz: f64,
        clock_hz: f64,
    ) -> Profile {
        let _profile_span = obs::span!("detect.profile");
        self.profile(
            magnitude,
            sample_rate_hz,
            clock_hz,
            Parallelism::sequential(),
        )
    }

    /// The one profiling path behind the batch and parallel entry
    /// points: schedule, drive the kernel (stitching its runs), refine,
    /// filter and classify, then mark degraded confidence.
    ///
    /// The static schedule reads no samples, so the kernel's inline
    /// finite check decides whether the signal is clean: the common case
    /// reads it exactly once, and a signal carrying NaN/±inf is dropped
    /// to its survivors and rerun — the same policy the streaming
    /// detector applies. The adaptive schedule reads every block before
    /// the kernel does, so adaptive mode takes the survivors first. The
    /// collapsed gap positions degrade the confidence of any event that
    /// touches them.
    pub(crate) fn profile(
        &self,
        magnitude: &[f64],
        sample_rate_hz: f64,
        clock_hz: f64,
        par: Parallelism,
    ) -> Profile {
        let survivors = |m| {
            let (kept, rejected, gaps) = sanitize_magnitude(m);
            if rejected > 0 {
                obs::counter_add!("detect.samples_rejected", rejected as u64);
            }
            (kept, gaps)
        };
        let (mut signal, mut gaps) = if self.config.calib.enabled {
            survivors(magnitude)
        } else {
            (Cow::Borrowed(magnitude), Vec::new())
        };
        let (mut runs, schedule) = match self.detect(&signal, par) {
            Ok(found) => found,
            Err(_first_bad) => {
                (signal, gaps) = survivors(magnitude);
                self.detect(&signal, par)
                    .expect("survivors are finite by construction")
            }
        };
        let n = signal.len();
        let dips = {
            let _s = obs::span!("detect.refine");
            refine_from_runs(
                runs.below_threshold.make_contiguous(),
                runs.below_edge.make_contiguous(),
                n,
            )
        };
        let mut events = self.events_from_dips(dips, clock_hz / sample_rate_hz);
        let block = self.config.calib.block(self.config.norm_window_samples);
        for e in &mut events {
            if schedule[(e.end_sample - 1) / block].degraded {
                e.confidence = Confidence::Degraded;
            }
        }
        mark_gap_degraded(&mut events, &gaps);
        obs::counter_add!("detect.samples", n as u64);
        record_event_metrics(&events);
        Profile::new(events, n, sample_rate_hz, clock_hz)
    }

    /// Computes the schedule for `signal` and drives the kernel over it
    /// under that schedule: one [`BlockDriver`] when sequential, one per
    /// chunk otherwise.
    fn detect(
        &self,
        signal: &[f64],
        par: Parallelism,
    ) -> Result<(StitchedRuns, Vec<BlockParams>), usize> {
        let schedule = {
            let _s = self
                .config
                .calib
                .enabled
                .then(|| obs::span!("detect.adaptive"));
            compute_schedule(&self.config, signal)
        };
        if !par.is_sequential() {
            let runs = self.detect_chunked(signal, &schedule, par)?;
            return Ok((runs, schedule));
        }
        let mut driver = BlockDriver::new(&self.config, 0);
        {
            let _s = obs::span!("detect.fused");
            driver.advance(signal, 0, signal.len(), |k| schedule[k])?;
        }
        {
            let _s = obs::span!("detect.merge");
            driver.stitch();
        }
        Ok((driver.runs, schedule))
    }

    /// Profiles a captured EM signal (the physical-device path).
    ///
    /// Generic over anything that can provide a magnitude signal with its
    /// rates; in practice this is `emprof_emsim::CapturedSignal` via the
    /// `(magnitude, sample_rate, clock)` triple.
    pub fn profile_capture(
        &self,
        magnitude: &[f64],
        sample_rate_hz: f64,
        clock_hz: f64,
    ) -> Profile {
        self.profile_magnitude(magnitude, sample_rate_hz, clock_hz)
    }

    /// Profiles a simulator power trace, first averaging it over
    /// `cycles_per_sample`-cycle intervals exactly as the paper does
    /// (20-cycle intervals, Section III-B) — the Table III validation
    /// path.
    pub fn profile_power_trace(&self, trace: &PowerTrace, cycles_per_sample: usize) -> Profile {
        let (samples, rate) = trace.averaged(cycles_per_sample);
        self.profile_magnitude(&samples, rate, trace.clock_hz())
    }

    /// Reference pipeline over a materialized normalized signal: finds
    /// below-threshold runs, merges runs separated by at most
    /// `merge_gap_samples`, and widens each run outward to the
    /// `edge_level` crossings. The production path runs the fused
    /// kernel instead; this stays as the executable specification the
    /// unit tests pin the fused path against.
    #[cfg(test)]
    fn detect_dips(&self, norm: &[f64]) -> Vec<(usize, usize)> {
        let raw = self.threshold_runs(norm);
        let merged = self.merge_runs(raw);
        self.refine_edges(norm, merged)
    }

    /// Turns refined dips into duration-filtered, classified stall
    /// events — the last detection stage of the batch and parallel
    /// paths.
    pub(crate) fn events_from_dips(
        &self,
        dips: Vec<(usize, usize)>,
        cps: f64,
    ) -> Vec<StallEvent> {
        let min_samples = self.config.min_event_samples(cps);
        dips.into_iter()
            .filter(|&(s, e)| (e - s) as f64 >= min_samples)
            .map(|(s, e)| self.config.stall_event(s, e, cps))
            .collect()
    }

    /// Below-threshold runs of the normalized signal, as `(start, end)`.
    /// Reference implementation; production uses the fused kernel.
    #[cfg(test)]
    fn threshold_runs(&self, norm: &[f64]) -> Vec<(usize, usize)> {
        let th = self.config.threshold;
        let mut raw: Vec<(usize, usize)> = Vec::new();
        let mut start: Option<usize> = None;
        for (i, &v) in norm.iter().enumerate() {
            if v < th {
                if start.is_none() {
                    start = Some(i);
                }
            } else if let Some(s) = start.take() {
                raw.push((s, i));
            }
        }
        if let Some(s) = start {
            raw.push((s, norm.len()));
        }
        raw
    }

    /// Merges runs separated by at most `merge_gap_samples`. Reference
    /// implementation; production merges in the stitcher.
    #[cfg(test)]
    fn merge_runs(&self, raw: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(raw.len());
        for run in raw {
            match merged.last_mut() {
                Some(last) if run.0 - last.1 <= self.config.merge_gap_samples => {
                    last.1 = run.1;
                }
                _ => merged.push(run),
            }
        }
        merged
    }

    /// Widens each run outward to the `edge_level` crossings, without
    /// letting adjacent events overlap, then re-merges any that now
    /// abut. Reference implementation over a materialized normalized
    /// signal; production refines from run lists via
    /// [`refine_from_runs`].
    #[cfg(test)]
    fn refine_edges(&self, norm: &[f64], merged: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        let edge = self.config.edge_level;
        let mut refined: Vec<(usize, usize)> = Vec::with_capacity(merged.len());
        for (idx, &(mut s, mut e)) in merged.iter().enumerate() {
            let left_bound = refined.last().map_or(0, |r: &(usize, usize)| r.1);
            while s > left_bound && norm[s - 1] < edge {
                s -= 1;
            }
            let right_bound = merged.get(idx + 1).map_or(norm.len(), |n| n.0);
            while e < right_bound && norm[e] < edge {
                e += 1;
            }
            refined.push((s, e));
        }
        let mut out: Vec<(usize, usize)> = Vec::with_capacity(refined.len());
        for run in refined {
            match out.last_mut() {
                Some(last) if run.0 <= last.1 => last.1 = last.1.max(run.1),
                _ => out.push(run),
            }
        }
        out
    }
}

/// Widens each merged below-threshold run outward to the `edge_level`
/// crossings using the below-edge **run list** instead of the normalized
/// signal, then re-merges any runs that now abut — bit-identical to the
/// reference `refine_edges`, with the normalized signal never
/// materialized.
///
/// Why this is exact: a merged run's start `s` is a below-threshold
/// sample, and configuration validation guarantees
/// `threshold <= edge_level`, so `s` lies inside some below-edge run
/// `(bs, be)`. The reference walks `s` left while the previous sample is
/// below edge and `s` stays above the previous refined run's end — that
/// walk stops at exactly `max(bs, left_bound)`. Symmetrically the run's
/// last sample `e - 1` lies in a below-edge run `(bs', be')` and the
/// right walk (clipped by the next merged run's start) stops at
/// `min(be', right_bound)`. Interior samples of a merged run — including
/// above-edge samples inside a gap the merge step bridged — are never
/// consulted by the reference, so they cannot matter here either. The
/// final abut-merge is the reference's, verbatim.
pub(crate) fn refine_from_runs(
    merged: &[(usize, usize)],
    below_edge: &[(usize, usize)],
    total: usize,
) -> Vec<(usize, usize)> {
    let mut refined: Vec<(usize, usize)> = Vec::with_capacity(merged.len());
    // Forward cursor into `below_edge`: merged runs are sorted, so the
    // containing below-edge runs only ever advance.
    let mut cursor = 0usize;
    for (idx, &(s, e)) in merged.iter().enumerate() {
        let left_bound = refined.last().map_or(0, |r: &(usize, usize)| r.1);
        while below_edge[cursor].1 <= s {
            cursor += 1;
        }
        debug_assert!(below_edge[cursor].0 <= s, "run start not below edge");
        let refined_start = below_edge[cursor].0.max(left_bound);
        let mut last = cursor;
        while below_edge[last].1 < e {
            last += 1;
        }
        debug_assert!(below_edge[last].0 < e, "run end not below edge");
        let right_bound = merged.get(idx + 1).map_or(total, |m| m.0);
        let refined_end = below_edge[last].1.min(right_bound);
        refined.push((refined_start, refined_end));
        cursor = last;
    }
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(refined.len());
    for run in refined {
        match out.last_mut() {
            Some(last) if run.0 <= last.1 => last.1 = last.1.max(run.1),
            _ => out.push(run),
        }
    }
    out
}

/// Drops non-finite samples ahead of detection, borrowing when the
/// signal is already clean (the overwhelmingly common case — the scan
/// is a single cheap pass). Used up front by adaptive detection, whose
/// schedule reads the samples before the kernel does, and as the static
/// path's retry once the kernel met a non-finite sample. Returns the surviving
/// samples and how many were rejected, plus the survivor positions where
/// runs of rejected samples collapsed out (one point per contiguous gap,
/// the `emprof_fault::survivor_dropout_points` convention) — events
/// touching those positions carry [`Confidence::Degraded`].
pub(crate) fn sanitize_magnitude(magnitude: &[f64]) -> (Cow<'_, [f64]>, usize, Vec<usize>) {
    if magnitude.iter().all(|v| v.is_finite()) {
        return (Cow::Borrowed(magnitude), 0, Vec::new());
    }
    let mut kept: Vec<f64> = Vec::with_capacity(magnitude.len());
    let mut gaps: Vec<usize> = Vec::new();
    for &v in magnitude {
        if v.is_finite() {
            kept.push(v);
        } else if gaps.last() != Some(&kept.len()) {
            gaps.push(kept.len());
        }
    }
    let rejected = magnitude.len() - kept.len();
    (Cow::Owned(kept), rejected, gaps)
}

/// Flushes per-event telemetry shared by the batch and streaming paths:
/// `detect.events` / `detect.refresh_events` counters and the
/// `detect.event_width_samples` width histogram.
pub(crate) fn record_event_metrics(events: &[StallEvent]) {
    if !obs::is_enabled() {
        return;
    }
    obs::counter_add!("detect.events", events.len() as u64);
    let refresh = events
        .iter()
        .filter(|e| e.kind == StallKind::RefreshCollision)
        .count();
    obs::counter_add!("detect.refresh_events", refresh as u64);
    let degraded = events
        .iter()
        .filter(|e| e.confidence == Confidence::Degraded)
        .count();
    obs::counter_add!("detect.confidence.events_degraded", degraded as u64);
    for e in events {
        obs::histogram_record!(
            "detect.event_width_samples",
            (e.end_sample - e.start_sample) as u64
        );
        obs::histogram_record!("detect.stall_latency_cycles", e.duration_cycles as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FS: f64 = 40e6;
    const CLK: f64 = 1.0e9;
    const CPS: f64 = CLK / FS; // 25 cycles per sample

    fn emprof() -> Emprof {
        Emprof::new(EmprofConfig::for_rates(FS, CLK))
    }

    /// Busy signal at 5.0 with dips of `dip_samples` at the given starts.
    fn signal_with_dips(len: usize, dips: &[(usize, usize)]) -> Vec<f64> {
        let mut s = vec![5.0; len];
        for &(start, width) in dips {
            for v in s.iter_mut().skip(start).take(width) {
                *v = 0.8;
            }
        }
        s
    }

    #[test]
    fn detects_isolated_stalls() {
        let mag = signal_with_dips(20_000, &[(5_000, 12), (9_000, 12), (13_000, 12)]);
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.miss_count(), 3);
        for e in p.events() {
            // 12 samples = 300 cycles; edge refinement may widen slightly.
            assert!(
                (250.0..450.0).contains(&e.duration_cycles),
                "latency {}",
                e.duration_cycles
            );
            assert_eq!(e.kind, StallKind::Normal);
        }
    }

    #[test]
    fn short_dips_are_rejected() {
        // 2 samples = 50 cycles < 100-cycle minimum: on-chip latency, not
        // an LLC miss.
        let mag = signal_with_dips(20_000, &[(5_000, 2)]);
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.miss_count(), 0);
    }

    #[test]
    fn long_stall_classified_as_refresh() {
        // 100 samples = 2500 cycles = 2.5 us at 1 GHz: a refresh collision.
        let mag = signal_with_dips(20_000, &[(5_000, 100)]);
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.miss_count(), 0);
        assert_eq!(p.refresh_count(), 1);
        assert!(p.events()[0].duration_cycles >= 2000.0);
    }

    #[test]
    fn noise_spike_inside_dip_does_not_split_it() {
        let mut mag = signal_with_dips(20_000, &[(5_000, 12)]);
        mag[5_006] = 5.0; // single-sample spike into the dip
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.miss_count(), 1, "merge_gap should absorb the spike");
    }

    #[test]
    fn gain_step_does_not_create_false_stalls() {
        // Probe gain drops 40% mid-capture; normalization must absorb it.
        let mut mag = vec![5.0; 30_000];
        for v in mag.iter_mut().skip(15_000) {
            *v = 3.0;
        }
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.miss_count(), 0, "gain step misread as a stall");
    }

    #[test]
    fn dips_detected_under_slow_drift() {
        // ±10% sinusoidal drift over the capture plus real dips.
        let mut mag: Vec<f64> = (0..40_000)
            .map(|i| 5.0 * (1.0 + 0.1 * (i as f64 * 1e-4).sin()))
            .collect();
        for &start in &[10_000usize, 20_000, 30_000] {
            for v in mag.iter_mut().skip(start).take(12) {
                *v *= 0.15;
            }
        }
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.miss_count(), 3);
    }

    #[test]
    fn measured_latency_tracks_true_duration() {
        // Dips of 8, 16, and 40 samples: 200, 400, 1000 cycles.
        let mag = signal_with_dips(30_000, &[(5_000, 8), (10_000, 16), (15_000, 40)]);
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.events().len(), 3);
        let measured: Vec<f64> = p.events().iter().map(|e| e.duration_cycles).collect();
        for (m, expected) in measured.iter().zip([200.0, 400.0, 1000.0]) {
            let err = (m - expected).abs() / expected;
            assert!(err < 0.3, "measured {m} vs expected {expected}");
        }
        // Ordering must be preserved exactly.
        assert!(measured[0] < measured[1] && measured[1] < measured[2]);
    }

    #[test]
    fn event_positions_map_to_cycles() {
        let mag = signal_with_dips(20_000, &[(5_000, 12)]);
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        let cycle = p.sample_to_cycle(p.events()[0].center_sample());
        let expected = (5_006.0 * CPS) as i64;
        assert!((cycle as i64 - expected).abs() < (3.0 * CPS) as i64);
    }

    #[test]
    fn dip_at_signal_edges_is_handled() {
        // Dip running off the end of the capture.
        let mut mag = vec![5.0; 10_000];
        for v in mag.iter_mut().skip(9_990) {
            *v = 0.8;
        }
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert!(p.events().len() <= 1);
        if let Some(e) = p.events().first() {
            assert_eq!(e.end_sample, 10_000);
        }
    }

    #[test]
    fn power_trace_path_uses_20_cycle_averaging() {
        // A 1 GHz power trace with a 300-cycle stall; averaged per 20
        // cycles -> 50 MS/s, stall = 15 samples.
        let mut power = vec![5.0f32; 100_000];
        for v in power.iter_mut().skip(50_000).take(300) {
            *v = 1.0;
        }
        let trace = PowerTrace::from_samples(power, 1.0e9);
        let emprof = Emprof::new(EmprofConfig::for_rates(50e6, 1.0e9));
        let p = emprof.profile_power_trace(&trace, 20);
        assert_eq!(p.miss_count(), 1);
        assert!((p.events()[0].duration_cycles - 300.0).abs() < 120.0);
    }

    #[test]
    fn empty_signal_gives_empty_profile() {
        let p = emprof().profile_magnitude(&[], FS, CLK);
        assert_eq!(p.events().len(), 0);
    }

    #[test]
    fn non_finite_samples_cannot_alter_events() {
        // Interleave NaN/±inf between clean samples: the surviving
        // subsequence is exactly the clean signal, so the profile must
        // be identical to the clean run — no poisoned windows, no
        // shifted indices, no phantom or lost events.
        let clean = signal_with_dips(20_000, &[(5_000, 12), (9_000, 30)]);
        let mut dirty = Vec::with_capacity(clean.len() + 64);
        for (i, &v) in clean.iter().enumerate() {
            if i % 997 == 0 {
                dirty.push(f64::NAN);
            }
            if i % 2503 == 0 {
                dirty.push(f64::INFINITY);
            }
            if i % 4099 == 0 {
                dirty.push(f64::NEG_INFINITY);
            }
            dirty.push(v);
        }
        let pc = emprof().profile_magnitude(&clean, FS, CLK);
        let pd = emprof().profile_magnitude(&dirty, FS, CLK);
        assert_eq!(pc.events().len(), pd.events().len());
        for (c, d) in pc.events().iter().zip(pd.events()) {
            assert_eq!((c.start_sample, c.end_sample), (d.start_sample, d.end_sample));
            assert_eq!(c.duration_cycles, d.duration_cycles);
            assert_eq!(c.kind, d.kind);
            assert_eq!(c.confidence, Confidence::High);
        }
        // The dirty run detects the same events but cannot fully trust
        // ones that straddle a collapsed dropout gap (the first dip
        // spans the ∞ inserted before sample 5006).
        assert_eq!(pc.degraded_count(), 0);
        assert!(pd.degraded_count() >= 1, "gap-touching event not degraded");
        assert_eq!(pd.total_samples(), clean.len());
    }

    #[test]
    fn all_non_finite_signal_gives_empty_profile() {
        let p = emprof().profile_magnitude(&[f64::NAN; 5_000], FS, CLK);
        assert_eq!(p.events().len(), 0);
        assert_eq!(p.total_samples(), 0);
    }

    #[test]
    fn constant_signal_yields_no_events() {
        // Flat windows normalize to 1.0 ("no dip"), never a
        // threshold-crossing value.
        let p = emprof().profile_magnitude(&[3.3; 20_000], FS, CLK);
        assert_eq!(p.events().len(), 0);
    }

    #[test]
    fn step_signal_yields_no_events() {
        // A clean upward gain step has flat plateaus on both sides; the
        // lower plateau must not read as a dip.
        let mut mag = vec![2.0; 15_000];
        mag.extend(vec![6.0; 15_000]);
        let p = emprof().profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.miss_count(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid EMPROF configuration")]
    fn bad_config_panics() {
        let mut c = EmprofConfig::for_rates(FS, CLK);
        c.threshold = 2.0;
        Emprof::new(c);
    }

    #[test]
    fn fused_path_matches_reference_pipeline() {
        // The production profile (fused kernel + run-list refine) must be
        // event-for-event identical to the executable specification: a
        // materialized normalization followed by threshold/merge/refine.
        let mut mag: Vec<f64> = (0..50_000)
            .map(|i| 5.0 * (1.0 + 0.1 * (i as f64 * 7e-5).sin()))
            .collect();
        for &(start, width) in &[
            (5_000usize, 12usize),
            (9_000, 8),
            (9_012, 8), // close pair: exercises the merge step
            (20_000, 100),
            (35_000, 2), // too short on its own
            (35_004, 10),
            (49_990, 10), // runs off the end
        ] {
            for v in mag.iter_mut().skip(start).take(width) {
                *v *= 0.15;
            }
        }
        let e = emprof();
        let norm =
            emprof_signal::stats::normalize_moving_minmax(&mag, e.config().norm_window_samples);
        let dips = e.detect_dips(&norm);
        let expected = e.events_from_dips(dips, CPS);
        assert!(expected.len() >= 4, "signal produced too few events");
        let p = e.profile_magnitude(&mag, FS, CLK);
        assert_eq!(p.events(), &expected[..]);
    }

    #[test]
    fn refine_from_runs_matches_reference_refine() {
        // Pseudo-random normalized signals across threshold/edge combos,
        // including threshold == edge and a barely-separated pair where
        // merged runs bridge above-edge gaps.
        for (threshold, edge) in [(0.35, 0.5), (0.4, 0.4), (0.3, 0.35), (0.2, 0.9)] {
            let mut cfg = EmprofConfig::for_rates(FS, CLK);
            cfg.threshold = threshold;
            cfg.edge_level = edge;
            let e = Emprof::new(cfg);
            for seed in 0..40usize {
                let norm: Vec<f64> = (0..400)
                    .map(|i| {
                        let h = (i + seed * 991).wrapping_mul(2_654_435_761) % 1024;
                        h as f64 / 1023.0
                    })
                    .collect();
                let below_edge = {
                    let mut runs = Vec::new();
                    let mut start = None;
                    for (i, &v) in norm.iter().enumerate() {
                        if v < edge {
                            start.get_or_insert(i);
                        } else if let Some(s) = start.take() {
                            runs.push((s, i));
                        }
                    }
                    if let Some(s) = start {
                        runs.push((s, norm.len()));
                    }
                    runs
                };
                let merged = e.merge_runs(e.threshold_runs(&norm));
                let reference = e.refine_edges(&norm, merged.clone());
                let fast = refine_from_runs(&merged, &below_edge, norm.len());
                assert_eq!(fast, reference, "threshold {threshold} edge {edge} seed {seed}");
            }
        }
    }
}
