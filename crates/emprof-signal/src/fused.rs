//! Fused one-pass normalization + dip-run detection.
//!
//! EMPROF's practicality rests on keeping up with tens of millions of EM
//! samples per second; the multi-pass pipeline in [`crate::stats`]
//! (moving min, moving max, normalize, then a threshold scan downstream)
//! reads the signal four times and materializes three intermediate
//! vectors. This module fuses all of it into a single pass: both
//! monotonic wedges advance together, each sample is normalized inline
//! the moment its centered window is complete, and the below-level runs
//! the detector needs are emitted directly — no intermediate vector is
//! written unless the caller explicitly asks for the normalized signal.
//!
//! The output is **bit-identical** to the multi-pass reference: the
//! wedges admit and evict in the same order as
//! [`stats::moving_min_range`](crate::stats::moving_min_range) /
//! [`stats::moving_max_range`](crate::stats::moving_max_range), and the
//! normalization expression is character-for-character the one in
//! [`stats::normalize_moving_minmax`](crate::stats::normalize_moving_minmax).
//! `tests/prop_fused.rs` property-checks this equivalence.
//!
//! The pass also carries the detector's finite-sample admission check:
//! every sample it reads is verified finite *as it enters the wedges*
//! (each sample enters exactly once), so callers no longer need a
//! separate whole-signal pre-scan to know a signal is clean — the
//! overwhelmingly common case costs zero extra reads, and a dirty signal
//! is reported via `Err` with the offending index so the caller can fall
//! back to its sanitize-and-retry path.
//!
//! The pass is resumable: a [`FusedState`] carries the wedges from one
//! call to the next, so a detector can feed it a whole signal at once,
//! one chunk per worker, one calibration block at a time or one network
//! frame at a time, and [`detect_runs_range_gated`] is simply a fresh
//! state advanced once.

use std::collections::VecDeque;

/// Below-level runs found by one fused pass, each as `(start, end)` in
/// **global** signal coordinates (half-open, `end` exclusive).
///
/// The two lists are independent level scans over the same normalized
/// values: `below_threshold` holds the maximal runs where the normalized
/// sample is `< threshold` (the detector's dip candidates), `below_edge`
/// the maximal runs where it is `< edge_level` (the context edge
/// refinement widens dips into). When `threshold <= edge_level` — the
/// invariant EMPROF's configuration validation enforces — every
/// below-threshold run lies inside some below-edge run, which is what
/// lets edge refinement run from these run lists alone, without the
/// normalized signal ever being materialized.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LevelRuns {
    /// Maximal runs of normalized samples `< threshold`.
    pub below_threshold: Vec<(usize, usize)>,
    /// Maximal runs of normalized samples `< edge_level`.
    pub below_edge: Vec<(usize, usize)>,
}

/// One-pass fused normalize + run detection over the whole signal.
///
/// Equivalent to `normalize_moving_minmax(signal, window)` followed by
/// threshold scans at `threshold` and `edge_level`, but reads the signal
/// once and allocates nothing of the signal's size.
///
/// # Errors
///
/// Returns `Err(i)` when `signal[i]` is the first non-finite sample
/// (NaN, ±inf) the pass reads; over the full signal every sample is
/// read, so `Ok` proves the signal clean. Any partially produced state
/// is discarded.
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn detect_runs(
    signal: &[f64],
    window: usize,
    threshold: f64,
    edge_level: f64,
) -> Result<LevelRuns, usize> {
    detect_runs_range(signal, window, threshold, edge_level, 0, signal.len(), None)
}

/// [`detect_runs`] restricted to output positions `[start, end)`, with
/// optional materialization of the normalized signal.
///
/// Each output position is normalized against the same centered window
/// *into the full signal* as the full pass would use, so the emitted
/// runs are exactly the full pass's runs clipped to `[start, end)` (a
/// run crossing a range boundary is reported truncated at it) — the
/// chunk-equivalence property the parallel detector stitches on. Runs
/// are in global coordinates.
///
/// When `norm_out` is `Some`, the normalized value of every position in
/// `[start, end)` is appended to it (the vector is not cleared), giving
/// bit-identical output to
/// [`stats::normalize_moving_minmax_range`](crate::stats::normalize_moving_minmax_range).
///
/// # Errors
///
/// Returns `Err(i)` on the first non-finite sample read. The pass reads
/// exactly the samples some window in the range covers:
/// `[start - window/2, end + window/2)` clipped to the signal. On `Err`,
/// `norm_out` may hold partial output; callers that retry must truncate
/// it back themselves.
///
/// # Panics
///
/// Panics if `window == 0` or `start..end` is not a valid range into the
/// signal.
pub fn detect_runs_range(
    signal: &[f64],
    window: usize,
    threshold: f64,
    edge_level: f64,
    start: usize,
    end: usize,
    norm_out: Option<&mut Vec<f64>>,
) -> Result<LevelRuns, usize> {
    detect_runs_range_gated(signal, window, threshold, edge_level, 0.0, start, end, norm_out)
}

/// [`detect_runs_range`] with a **contrast gate**: windows whose dynamic
/// range (`max - min`) does not exceed `min_range` are treated as flat
/// and normalize to `1.0` ("fully busy"), exactly like a constant
/// window. With `min_range == 0.0` this is bit-identical to the ungated
/// pass (`hi - lo > 0.0` iff `hi > lo` for finite samples).
///
/// The gate is what lets the adaptive detector suppress noise-floor
/// false positives: when the probe has drifted far enough that a window
/// contains no dip, its range is pure receiver noise; min/max
/// normalization would stretch that noise across `[0, 1]` and the
/// threshold scan would read the lower tail as dips. A gate slightly
/// below the recent dip-contrast estimate flattens exactly those
/// windows while leaving true dip windows (whose range carries the dip
/// contrast) untouched.
///
/// This is a fresh [`FusedState`] advanced once over the range.
///
/// # Errors / Panics
///
/// Identical to [`detect_runs_range`].
#[allow(clippy::too_many_arguments)]
pub fn detect_runs_range_gated(
    signal: &[f64],
    window: usize,
    threshold: f64,
    edge_level: f64,
    min_range: f64,
    start: usize,
    end: usize,
    norm_out: Option<&mut Vec<f64>>,
) -> Result<LevelRuns, usize> {
    let params = KernelParams {
        window,
        threshold,
        edge_level,
        min_range,
    };
    let mut runs = LevelRuns::default();
    FusedState::new(start).advance(signal, 0, end, &params, &mut runs, norm_out)?;
    Ok(runs)
}

/// The parameters one [`FusedState::advance`] call runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelParams {
    /// Centered normalization window, in samples (nonzero).
    pub window: usize,
    /// Level below which a normalized sample is a dip candidate.
    pub threshold: f64,
    /// Level below which a normalized sample is edge-refinement context.
    pub edge_level: f64,
    /// Contrast gate: windows with `max - min <= min_range` normalize
    /// flat (`0.0` disables it; see [`detect_runs_range_gated`]).
    pub min_range: f64,
}

/// The fused kernel as a resumable pass: both monotonic wedges with
/// their cached fronts, the admit frontier, and the window they were
/// primed for, carried from one [`advance`](FusedState::advance) call to
/// the next.
///
/// Advancing one state over consecutive ranges `[p0, p1)`, `[p1, p2)`, …
/// yields, call for call, exactly what fresh [`detect_runs_range_gated`]
/// calls over those ranges yield: each position is normalized against
/// its full centered window, and each call's runs are clipped at the
/// call's end (a run crossing a call boundary arrives as abutting
/// pieces, which callers stitch the way the parallel detector stitches
/// chunk seams). What resuming saves is the re-priming: a fresh call
/// admits `window / 2` samples of left context before its first output,
/// a resumed call admits only samples it has not seen. The wedges are
/// rebuilt only when a call's window differs from the one they hold.
#[derive(Debug, Clone)]
pub struct FusedState {
    /// Next output position.
    position: usize,
    /// Next sample index to admit into the wedges.
    right: usize,
    /// Window the wedges are primed for; `0` before the first call.
    window: usize,
    min_wedge: VecDeque<(usize, f64)>,
    max_wedge: VecDeque<(usize, f64)>,
    /// Cached wedge fronts (valid while `window != 0`).
    min_front: (usize, f64),
    max_front: (usize, f64),
}

impl FusedState {
    /// A state whose first output position is `start`.
    pub fn new(start: usize) -> Self {
        FusedState {
            position: start,
            right: start,
            window: 0,
            min_wedge: VecDeque::new(),
            max_wedge: VecDeque::new(),
            min_front: (0, 0.0),
            max_front: (0, 0.0),
        }
    }

    /// The next output position: positions before it have been
    /// normalized.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Normalizes positions `[position, end)` under `params` and appends
    /// their below-level runs (global coordinates, clipped at `end`) to
    /// `runs`; with `norm_out`, also appends each normalized value.
    ///
    /// `signal` holds samples `[base, base + signal.len())` of the
    /// stream, and its last sample is taken as the stream's last: windows
    /// are clipped there, so a caller that may still receive samples
    /// must keep `end + window / 2 <= base + signal.len()`. It must also
    /// still hold every sample the call reads: from `position - window /
    /// 2` when the window changed, otherwise from the admit frontier.
    ///
    /// # Errors
    ///
    /// `Err(i)` when sample `i` is the first non-finite sample read. The
    /// state is then unusable; callers retrying on sanitized input start
    /// a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if `params.window == 0` or `[position, end)` does not lie
    /// within the samples `signal` holds.
    pub fn advance(
        &mut self,
        signal: &[f64],
        base: usize,
        end: usize,
        params: &KernelParams,
        runs: &mut LevelRuns,
        mut norm_out: Option<&mut Vec<f64>>,
    ) -> Result<(), usize> {
        let KernelParams {
            window,
            threshold,
            edge_level,
            min_range,
        } = *params;
        assert!(window > 0, "window must be nonzero");
        let start = self.position;
        let len = base + signal.len();
        assert!(
            base <= start && start <= end && end <= len,
            "range {start}..{end} out of bounds for samples {base}..{len}"
        );
        if start == end {
            return Ok(());
        }
        let half = window / 2;
        let last = len - 1;
        if window != self.window {
            // The wedges' contents depend on the window, so a new window
            // starts over from its left edge. Prime both wedges with the
            // first admitted sample so the hot loop can keep each front
            // cached in locals; the wedges are non-empty from here on
            // (eviction only removes samples that left the window, and
            // the window always holds at least the output sample).
            let first = start.saturating_sub(half);
            assert!(first >= base, "sample {first} already released");
            let v0 = signal[first - base];
            if !v0.is_finite() {
                return Err(first);
            }
            self.min_wedge.clear();
            self.max_wedge.clear();
            self.min_wedge.push_back((first, v0));
            self.max_wedge.push_back((first, v0));
            self.min_front = (first, v0);
            self.max_front = (first, v0);
            self.right = first + 1;
            self.window = window;
        }
        let min_wedge = &mut self.min_wedge;
        let max_wedge = &mut self.max_wedge;
        let mut min_front = self.min_front;
        let mut max_front = self.max_front;
        let mut right = self.right;
        let mut th_start: Option<usize> = None;
        let mut ed_start: Option<usize> = None;
        for (off, &v_i) in signal[start - base..end - base].iter().enumerate() {
            let i = start + off;
            // Admit every sample the window centered on `i` can see. Each
            // sample is admitted exactly once — this is where it is read,
            // and where it is checked finite.
            let win_end = (i + half).min(last);
            while right <= win_end {
                let v = signal[right - base];
                if !v.is_finite() {
                    return Err(right);
                }
                if v <= min_front.1 {
                    // New window minimum: the pop loop below would drain
                    // the whole wedge (every stored value is >= the
                    // front's), so collapse it in one step and refresh
                    // the cached front.
                    min_wedge.clear();
                    min_wedge.push_back((right, v));
                    min_front = (right, v);
                } else {
                    while min_wedge.back().is_some_and(|&(_, b)| v <= b) {
                        min_wedge.pop_back();
                    }
                    min_wedge.push_back((right, v));
                }
                if v >= max_front.1 {
                    max_wedge.clear();
                    max_wedge.push_back((right, v));
                    max_front = (right, v);
                } else {
                    while max_wedge.back().is_some_and(|&(_, b)| v >= b) {
                        max_wedge.pop_back();
                    }
                    max_wedge.push_back((right, v));
                }
                right += 1;
            }
            // Evict entries that fell out of the window, then normalize
            // inline — the same expression as `normalize_moving_minmax`.
            // Only the cached fronts are consulted on the no-eviction path.
            let win_start = i.saturating_sub(half);
            while min_front.0 < win_start {
                min_wedge.pop_front();
                min_front = *min_wedge.front().expect("window always non-empty");
            }
            while max_front.0 < win_start {
                max_wedge.pop_front();
                max_front = *max_wedge.front().expect("window always non-empty");
            }
            let lo = min_front.1;
            let hi = max_front.1;
            let v = v_i;
            // `hi - lo > 0.0` is exactly `hi > lo` for finite samples, so the
            // ungated (`min_range == 0.0`) pass matches `normalize_moving_minmax`
            // bit for bit.
            let normalized = if hi - lo > min_range {
                ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
            } else {
                1.0
            };
            if let Some(out) = norm_out.as_deref_mut() {
                out.push(normalized);
            }
            // Run bookkeeping for both levels.
            if normalized < threshold {
                if th_start.is_none() {
                    th_start = Some(i);
                }
            } else if let Some(s) = th_start.take() {
                runs.below_threshold.push((s, i));
            }
            if normalized < edge_level {
                if ed_start.is_none() {
                    ed_start = Some(i);
                }
            } else if let Some(s) = ed_start.take() {
                runs.below_edge.push((s, i));
            }
        }
        if let Some(s) = th_start {
            runs.below_threshold.push((s, end));
        }
        if let Some(s) = ed_start {
            runs.below_edge.push((s, end));
        }
        self.min_front = min_front;
        self.max_front = max_front;
        self.right = right;
        self.position = end;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::normalize_moving_minmax;

    /// The multi-pass reference: normalize, then scan runs at `level`.
    fn reference_runs(norm: &[f64], level: f64) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut start = None;
        for (i, &v) in norm.iter().enumerate() {
            if v < level {
                start.get_or_insert(i);
            } else if let Some(s) = start.take() {
                runs.push((s, i));
            }
        }
        if let Some(s) = start {
            runs.push((s, norm.len()));
        }
        runs
    }

    fn test_signal(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let drift = 1.0 + 0.1 * (i as f64 * 1e-3).sin();
                let noise = ((i * 2_654_435_761_usize) % 1000) as f64 / 2500.0;
                let dip = if i % 97 < 7 { 0.15 } else { 1.0 };
                5.0 * drift * dip + noise
            })
            .collect()
    }

    #[test]
    fn fused_matches_multi_pass_reference() {
        let signal = test_signal(2_000);
        for window in [1, 2, 3, 16, 64, 401, 1999, 5000] {
            let norm = normalize_moving_minmax(&signal, window);
            let mut fused_norm = Vec::new();
            let runs = detect_runs_range(
                &signal,
                window,
                0.35,
                0.5,
                0,
                signal.len(),
                Some(&mut fused_norm),
            )
            .expect("clean signal");
            assert_eq!(fused_norm, norm, "window {window}");
            assert_eq!(runs.below_threshold, reference_runs(&norm, 0.35));
            assert_eq!(runs.below_edge, reference_runs(&norm, 0.5));
        }
    }

    #[test]
    fn range_outputs_clip_the_full_runs() {
        let signal = test_signal(1_500);
        let window = 120;
        let full_norm = normalize_moving_minmax(&signal, window);
        for (start, end) in [(0, 1500), (0, 1), (1499, 1500), (250, 901), (700, 700)] {
            let mut norm = Vec::new();
            let runs = detect_runs_range(
                &signal,
                window,
                0.35,
                0.5,
                start,
                end,
                Some(&mut norm),
            )
            .expect("clean signal");
            assert_eq!(norm, full_norm[start..end], "range {start}..{end}");
            // Runs over the range are the reference runs of the slice,
            // shifted into global coordinates.
            let expect = |level: f64| -> Vec<(usize, usize)> {
                reference_runs(&full_norm[start..end], level)
                    .into_iter()
                    .map(|(s, e)| (s + start, e + start))
                    .collect()
            };
            assert_eq!(runs.below_threshold, expect(0.35), "range {start}..{end}");
            assert_eq!(runs.below_edge, expect(0.5), "range {start}..{end}");
        }
    }

    #[test]
    fn flat_signal_has_no_runs() {
        // Flat windows normalize to 1.0 ("busy"), never below a level.
        let runs = detect_runs(&[4.2; 300], 16, 0.35, 0.5).expect("clean");
        assert!(runs.below_threshold.is_empty());
        assert!(runs.below_edge.is_empty());
    }

    #[test]
    fn all_dip_signal_is_one_run() {
        // A lone spike makes everything else the window floor.
        let mut signal = vec![0.1; 200];
        signal[100] = 50.0;
        let runs = detect_runs(&signal, 500, 0.35, 0.5).expect("clean");
        assert_eq!(runs.below_threshold, vec![(0, 100), (101, 200)]);
        assert_eq!(runs.below_edge, vec![(0, 100), (101, 200)]);
    }

    #[test]
    fn non_finite_sample_reports_its_index() {
        let mut signal = test_signal(500);
        signal[317] = f64::NAN;
        assert_eq!(detect_runs(&signal, 64, 0.35, 0.5), Err(317));
        signal[317] = f64::INFINITY;
        assert_eq!(detect_runs(&signal, 64, 0.35, 0.5), Err(317));
        // A range whose windows never read index 317 does not see it.
        signal[317] = f64::NAN;
        assert!(detect_runs_range(&signal, 64, 0.35, 0.5, 0, 200, None).is_ok());
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(detect_runs(&[], 8, 0.35, 0.5), Ok(LevelRuns::default()));
        let signal = test_signal(100);
        assert_eq!(
            detect_runs_range(&signal, 8, 0.35, 0.5, 40, 40, None),
            Ok(LevelRuns::default())
        );
    }

    #[test]
    fn resumed_state_equals_fresh_range_calls() {
        // Split points (including empty calls) with each call's window and
        // gate; the window changes mid-stream and changes back, forcing
        // re-primes in both directions, and one range clips at the end.
        let signal = test_signal(3_000);
        let calls: [(usize, usize, f64); 9] = [
            (0, 64, 0.0),
            (1, 64, 0.0),
            (700, 64, 0.0),
            (700, 64, 0.0),
            (1_234, 16, 0.0),
            (1_900, 401, 0.5),
            (2_001, 401, 0.5),
            (2_600, 64, 0.0),
            (3_000, 3, 0.0),
        ];
        let mut state = FusedState::new(0);
        let mut from = 0;
        for &(to, window, min_range) in &calls {
            let params = KernelParams {
                window,
                threshold: 0.35,
                edge_level: 0.5,
                min_range,
            };
            let mut runs = LevelRuns::default();
            let mut norm = Vec::new();
            state
                .advance(&signal, 0, to, &params, &mut runs, Some(&mut norm))
                .expect("clean signal");
            let mut fresh_norm = Vec::new();
            let fresh = detect_runs_range_gated(
                &signal,
                window,
                0.35,
                0.5,
                min_range,
                from,
                to,
                Some(&mut fresh_norm),
            )
            .expect("clean signal");
            assert_eq!(runs, fresh, "call {from}..{to} window {window}");
            assert_eq!(norm, fresh_norm, "call {from}..{to} window {window}");
            assert_eq!(state.position(), to);
            from = to;
        }
    }

    #[test]
    fn resumed_state_reads_a_trimmed_buffer() {
        // A stream that keeps only the samples the next call can read
        // (from `position - window / 2`) gets the same runs as one pass.
        let signal = test_signal(5_000);
        let window = 200;
        let params = KernelParams {
            window,
            threshold: 0.35,
            edge_level: 0.5,
            min_range: 0.0,
        };
        let mut state = FusedState::new(0);
        let mut runs = LevelRuns::default();
        let mut base = 0;
        for end in [150, 151, 900, 2_345, 4_000, 4_899] {
            state
                .advance(&signal[base..], base, end, &params, &mut runs, None)
                .expect("clean signal");
            base = end - window / 2;
        }
        state
            .advance(&signal[base..], base, 5_000, &params, &mut runs, None)
            .expect("clean signal");
        let whole = detect_runs(&signal, window, 0.35, 0.5).expect("clean signal");
        // Runs split at call boundaries rejoin with gap 0.
        let rejoin = |runs: &[(usize, usize)]| {
            let mut out: Vec<(usize, usize)> = Vec::new();
            for &(s, e) in runs {
                match out.last_mut() {
                    Some(last) if last.1 == s => last.1 = e,
                    _ => out.push((s, e)),
                }
            }
            out
        };
        assert_eq!(rejoin(&runs.below_threshold), whole.below_threshold);
        assert_eq!(rejoin(&runs.below_edge), whole.below_edge);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = detect_runs(&[1.0], 0, 0.35, 0.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_range_panics() {
        let _ = detect_runs_range(&[1.0, 2.0], 3, 0.35, 0.5, 1, 5, None);
    }
}
