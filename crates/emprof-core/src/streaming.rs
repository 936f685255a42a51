//! Streaming (online) EMPROF.
//!
//! The paper's SPEC captures already exceed what a spectrum analyzer can
//! buffer ("the N9020A MXA has a limit on how long it can continuously
//! record a signal", Section VI), and a deployed profiler would watch a
//! device for hours. This module runs the EMPROF pipeline incrementally:
//! samples are pushed as they arrive, completed stall events are emitted
//! as soon as they can no longer change, and memory use is bounded by the
//! normalization window — independent of capture length.
//!
//! The streaming detector is a thin driver over the same core as the
//! batch detector (`crate::driver`): each batch of samples is appended to
//! a buffer and the resumable fused kernel is advanced once, to the last
//! position whose centered window is complete, under the same
//! calibration schedule (static mode: the constant one). Its runs are
//! stitched by the same stitcher, and refinement, merging and the
//! duration filter follow batch rules on those run lists. So a finite
//! signal fed through [`StreamingEmprof`], in any chunking, yields the
//! batch profile event for event — see the equivalence tests.

use std::collections::VecDeque;
use std::time::Instant;

use emprof_obs as obs;

use crate::calib::{BlockParams, Calibrator};
use crate::config::EmprofConfig;
use crate::driver::BlockDriver;
use crate::profile::{Confidence, Profile, StallEvent, StallKind};

/// How many pushed samples accumulate between telemetry flushes. Pushing
/// is the hot path, so the `detect.samples` counter and the streaming
/// gauges are updated in batches rather than per sample.
const OBS_FLUSH_INTERVAL: usize = 65_536;

/// The most samples one kernel advance takes in: a longer batch is fed
/// in pieces of this size, so the buffer stays bounded by the window
/// plus one piece, however much a caller hands over at once.
const MAX_PIECE: usize = 65_536;

/// A point-in-time view of a [`StreamingEmprof`]'s progress, from
/// [`StreamingEmprof::stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamingStats {
    /// Total magnitude samples pushed so far.
    pub samples_pushed: usize,
    /// Stall events finalized so far (drained or not).
    pub events_emitted: usize,
    /// Non-finite samples rejected at the ingest boundary (see
    /// [`StreamingEmprof::push`]).
    pub samples_rejected: usize,
    /// Current buffered-memory footprint in samples.
    pub buffered_samples: usize,
    /// Observed ingest throughput in samples per second of wall time;
    /// `None` before the first sample arrives.
    pub samples_per_sec: Option<f64>,
}

/// Incremental EMPROF detector with bounded memory.
///
/// # Example
///
/// ```
/// use emprof_core::{EmprofConfig, StreamingEmprof};
///
/// let mut s = StreamingEmprof::new(EmprofConfig::for_rates(40e6, 1.0e9), 40e6, 1.0e9);
/// // Push a busy signal with one 12-sample stall dip.
/// for i in 0..30_000 {
///     let v = if (15_000..15_012).contains(&i) { 0.8 } else { 5.0 };
///     s.push(v);
/// }
/// let profile = s.finish();
/// assert_eq!(profile.miss_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingEmprof {
    config: EmprofConfig,
    sample_rate_hz: f64,
    clock_hz: f64,
    /// Accepted samples from `buf_base` on: the windows of positions
    /// the kernel has not reached, and the calibration block in
    /// progress.
    buf: Vec<f64>,
    /// Index of the first sample in `buf`.
    buf_base: usize,
    /// Total samples accepted.
    pushed: usize,
    /// The detector core. Its position trails `pushed` by half the base
    /// window; its stitched below-threshold runs are the dips awaiting
    /// refinement, its below-edge runs the context refinement reads.
    driver: BlockDriver,
    /// The calibration loop (inert in static mode).
    cal: Calibrator,
    /// Blocks the calibrator has observed.
    observed: usize,
    /// Parameters of blocks `schedule_base..=observed`.
    schedule: VecDeque<BlockParams>,
    schedule_base: usize,
    /// Finished events ready for the caller.
    events: Vec<StallEvent>,
    /// The most recent refined run as `(start, end, represented)`,
    /// *before* the duration filter. Batch applies the filter after its
    /// final abut-merge pass, so a run too short to be an event on its own
    /// can still extend (or seed) one when a later run abuts it;
    /// `represented` records whether the run currently has an entry in
    /// `events`.
    last_run: Option<(usize, usize, bool)>,
    /// Events already drained via [`StreamingEmprof::drain_events`].
    drained: usize,
    /// Non-finite samples rejected at the ingest boundary.
    rejected: usize,
    /// Whether the most recent refined run ended on a normalized sample
    /// at or above `edge_level`. A cleanly-ended run can never be merged
    /// into by a later dip (that sample blocks left refinement), so its
    /// event — if any — is immutable; a clipped run is still growing and
    /// its event must not be drained yet.
    tail_sealed: bool,
    /// Wall-clock instant of the first push, for throughput reporting.
    started_at: Option<Instant>,
    /// Samples pushed since the last telemetry flush.
    unflushed: usize,
    /// Survivor positions where runs of rejected samples collapsed out
    /// (the `survivor_dropout_points` convention, deduplicated). Events
    /// touching one carry [`Confidence::Degraded`]; trimmed once no
    /// future or still-mutable event can reach back to them.
    gaps: VecDeque<usize>,
    /// Per calibration block: was the confidence state machine degraded?
    /// An event is degraded by the block its *end* falls in, so in-place
    /// merges recompute consistently with the batch final-extent
    /// computation. One bool per block.
    block_degraded: Vec<bool>,
}

impl StreamingEmprof {
    /// Creates a streaming detector.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`EmprofConfig::validate`] or a
    /// rate is not positive.
    pub fn new(config: EmprofConfig, sample_rate_hz: f64, clock_hz: f64) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid EMPROF configuration: {e}"));
        assert!(
            sample_rate_hz > 0.0 && clock_hz > 0.0,
            "rates must be positive"
        );
        let cal = Calibrator::new(&config);
        let first = cal.params();
        StreamingEmprof {
            config,
            sample_rate_hz,
            clock_hz,
            buf: Vec::new(),
            buf_base: 0,
            pushed: 0,
            driver: BlockDriver::new(&config, 0),
            cal,
            observed: 0,
            schedule: VecDeque::from([first]),
            schedule_base: 0,
            events: Vec::new(),
            last_run: None,
            drained: 0,
            rejected: 0,
            tail_sealed: true,
            started_at: None,
            unflushed: 0,
            gaps: VecDeque::new(),
            block_degraded: vec![first.degraded],
        }
    }

    /// Core cycles per capture sample.
    pub fn cycles_per_sample(&self) -> f64 {
        self.clock_hz / self.sample_rate_hz
    }

    /// The detector configuration this stream was built with.
    pub fn config(&self) -> EmprofConfig {
        self.config
    }

    /// The capture sample rate in Hz.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// The profiled core clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Pushes one magnitude sample.
    ///
    /// Non-finite samples (NaN, ±inf) are **rejected, not processed**:
    /// a single NaN would otherwise lodge permanently in the moving
    /// min/max wedges and poison every window that sees it. Rejected
    /// samples are counted (`detect.samples_rejected` telemetry,
    /// [`samples_rejected`](StreamingEmprof::samples_rejected)) and the
    /// detector proceeds on the surviving subsequence — all event
    /// indices are positions within the *accepted* samples, identical
    /// to running the batch detector on the pre-filtered signal.
    pub fn push(&mut self, value: f64) {
        self.extend_from_slice(&[value]);
    }

    /// Pushes a batch of samples, gathered into slices of 4096 for
    /// [`extend_from_slice`](StreamingEmprof::extend_from_slice).
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, samples: I) {
        let mut batch = [0.0; 4096];
        let mut len = 0;
        for s in samples {
            batch[len] = s;
            len += 1;
            if len == batch.len() {
                self.extend_from_slice(&batch);
                len = 0;
            }
        }
        self.extend_from_slice(&batch[..len]);
    }

    /// Pushes a batch of samples from a slice — the server ingest
    /// hot-path entry point, taking the borrowed batch directly. The
    /// accepted samples are appended in bulk and the kernel advances
    /// once, to the last position whose window they complete (a batch
    /// longer than 64 Ki samples is taken in pieces of that size).
    /// Rejection works as in [`push`](StreamingEmprof::push).
    pub fn extend_from_slice(&mut self, samples: &[f64]) {
        for mut piece in samples.chunks(MAX_PIECE) {
            while let Some(bad) = piece.iter().position(|v| !v.is_finite()) {
                self.accept(&piece[..bad]);
                self.rejected += 1;
                // Record where the gap collapsed to in survivor
                // coordinates (one point per contiguous run of
                // rejections): events touching it are demoted to
                // degraded confidence.
                if self.gaps.back() != Some(&self.pushed) {
                    self.gaps.push_back(self.pushed);
                }
                obs::counter_add!("detect.samples_rejected", 1);
                piece = &piece[bad + 1..];
            }
            self.accept(piece);
            self.advance(false);
        }
    }

    /// Appends finite samples to the buffer.
    fn accept(&mut self, samples: &[f64]) {
        if samples.is_empty() {
            return;
        }
        self.started_at.get_or_insert_with(Instant::now);
        self.buf.extend_from_slice(samples);
        self.pushed += samples.len();
        self.unflushed += samples.len();
        if self.unflushed >= OBS_FLUSH_INTERVAL {
            self.flush_obs();
        }
    }

    /// Feeds the calibrator the blocks now complete, advances the kernel
    /// as far as the buffer allows, stitches its runs and emits the dips
    /// that can no longer change. At the end of the stream (`finish`),
    /// the partial last block is observed too (as batch calibration
    /// does), the tail is normalized against windows clipped at the last
    /// sample, and every pending dip is flushed.
    fn advance(&mut self, finish: bool) {
        let block = self.driver.block();
        if self.config.calib.enabled {
            loop {
                let start = self.observed * block;
                let end = (start + block).min(self.pushed);
                if end <= start || (end < start + block && !finish) {
                    break;
                }
                self.cal
                    .observe_block(&self.buf[start - self.buf_base..end - self.buf_base]);
                self.observed += 1;
                let next = self.cal.params();
                self.schedule.push_back(next);
                self.block_degraded.push(next.degraded);
            }
        }
        let half = self.config.norm_window_samples / 2;
        let target = if finish {
            self.pushed
        } else {
            self.pushed.saturating_sub(half)
        };
        let (schedule, first) = (&self.schedule, self.schedule_base);
        self.driver
            .advance(&self.buf, self.buf_base, target, |k| schedule[k - first])
            .expect("rejection happens at ingest; the buffer is finite");
        self.driver.stitch();
        self.process_pending(finish);
        if finish {
            return;
        }

        let position = self.driver.position();
        // Below-edge runs only matter to refinement of dips still
        // pending — always keeping the last run, which may still be
        // growing across the frontier.
        let bound = self
            .driver
            .runs
            .below_threshold
            .front()
            .map_or(position, |r| r.0);
        let edges = &mut self.driver.runs.below_edge;
        while edges.len() > 1 && edges.front().is_some_and(|r| r.1 <= bound) {
            edges.pop_front();
        }
        while self.schedule_base < position / block {
            self.schedule.pop_front();
            self.schedule_base += 1;
        }
        // The next advance reads from `position - half` at the earliest
        // (a changed window re-primes there, and adaptation only shrinks
        // the window); the calibrator still has to read the block in
        // progress. The released prefix is compacted away once it is half
        // a window long, so one-sample pushes cost amortized O(1).
        let mut keep_from = position.saturating_sub(half);
        if self.config.calib.enabled {
            keep_from = keep_from.min(self.observed * block);
        }
        if keep_from - self.buf_base > half {
            self.buf.drain(..keep_from - self.buf_base);
            self.buf_base = keep_from;
        }
    }

    /// Refines and emits the pending dips that can no longer change,
    /// exactly as batch refinement does from the run lists: a dip's edges
    /// widen to its containing below-edge runs, clipped by the previous
    /// refined run and the next dip. A dip is final once the kernel is
    /// `merge_gap + 1` samples past its end (no later dip can merge into
    /// it) and its right edge is settled; `flush` emits everything.
    fn process_pending(&mut self, flush: bool) {
        let gap = self.config.merge_gap_samples;
        let position = self.driver.position();
        while let Some(&(start, end)) = self.driver.runs.below_threshold.front() {
            // Final once the frontier is far enough past the run's end
            // that no future run can merge into it (a run ending exactly
            // at the frontier may still grow).
            if !flush && position < end + gap + 1 {
                break;
            }
            let runs = &self.driver.runs;
            let left_bound = self.last_run.map(|(_, e, _)| e).unwrap_or(0);
            let cs = *runs
                .below_edge
                .iter()
                .find(|r| r.1 > start)
                .expect("run start lies in a below-edge run");
            debug_assert!(cs.0 <= start, "run start not below edge");
            let refined_s = cs.0.max(left_bound);
            let right_bound = runs.below_threshold.get(1).map_or(position, |n| n.0);
            let ce = *runs
                .below_edge
                .iter()
                .find(|r| r.1 > end - 1)
                .expect("run end lies in a below-edge run");
            debug_assert!(ce.0 < end, "run end not below edge");
            let refined_e = ce.1.min(right_bound);
            if !flush && refined_e == position && runs.below_threshold.len() < 2 {
                // The right edge is still growing; wait for more samples.
                break;
            }
            self.driver.runs.below_threshold.pop_front();
            // Sealed iff the run ended on an at-or-above-edge sample —
            // i.e. at its container's settled end, not clipped by a
            // neighbour or the frontier.
            self.tail_sealed = refined_e == ce.1 && ce.1 < position;
            self.emit(refined_s, refined_e);
        }
    }

    /// Confidence of an event spanning `[start, end)`: degraded when it
    /// touches a collapsed dropout gap (`start <= p <= end + 1`, the
    /// `emprof_fault::flag_degraded` criterion) or when the calibration
    /// state machine was degraded in the block the event *ends* in — the
    /// same final-extent rule the batch paths apply, so in-place merges
    /// can recompute it consistently.
    fn event_confidence(&self, start: usize, end: usize) -> Confidence {
        if self.gaps.iter().any(|&p| start <= p && p <= end + 1)
            || self.block_degraded[(end - 1) / self.driver.block()]
        {
            Confidence::Degraded
        } else {
            Confidence::High
        }
    }

    fn make_event(&self, start: usize, end: usize) -> StallEvent {
        StallEvent {
            confidence: self.event_confidence(start, end),
            ..self
                .config
                .stall_event(start, end, self.cycles_per_sample())
        }
    }

    /// Admits a refined run. Mirrors the batch detector's ordering
    /// exactly: abutting runs merge first, and the duration filter applies
    /// to the *merged* run — so a sub-threshold run can still grow into
    /// (or extend) an event when a neighbour touches it.
    fn emit(&mut self, start: usize, end: usize) {
        let min_samples = self.config.min_event_samples(self.cycles_per_sample());
        if let Some((run_start, run_end, represented)) = self.last_run {
            if start <= run_end {
                let new_end = run_end.max(end);
                let passes = ((new_end - run_start) as f64) >= min_samples;
                if passes {
                    let ev = self.make_event(run_start, new_end);
                    if represented {
                        let last = self
                            .events
                            .last_mut()
                            .expect("represented run has an event");
                        // Durations only grow on merge, so the only
                        // possible kind change is an upgrade to refresh.
                        let was_refresh = last.kind == StallKind::RefreshCollision;
                        *last = ev;
                        if !was_refresh && ev.kind == StallKind::RefreshCollision {
                            obs::counter_add!("detect.refresh_events", 1);
                        }
                    } else {
                        self.push_event(ev);
                    }
                }
                self.last_run = Some((run_start, new_end, passes));
                return;
            }
        }
        let passes = ((end - start) as f64) >= min_samples;
        if passes {
            let ev = self.make_event(start, end);
            self.push_event(ev);
        }
        self.last_run = Some((start, end, passes));
        // Gap points that no future or still-mutable event can reach
        // back to (every later refined start is >= this run's start) are
        // dead; drop them so the deque stays bounded.
        while self
            .gaps
            .front()
            .is_some_and(|&p| p + 1 < start)
        {
            self.gaps.pop_front();
        }
    }

    fn push_event(&mut self, ev: StallEvent) {
        obs::counter_add!("detect.events", 1);
        if ev.kind == StallKind::RefreshCollision {
            obs::counter_add!("detect.refresh_events", 1);
        }
        self.events.push(ev);
    }

    /// Events finalized since the last drain — the live-monitoring
    /// interface: call periodically and act on completed stalls while the
    /// capture continues.
    ///
    /// Only *immutable* events are released: the most recent event is
    /// withheld while a later dip could still refine back to its end and
    /// merge into it in place (a drained copy must never go stale). That
    /// is exactly while the run behind it ended *clipped* — its right
    /// edge never reached a sample at or above `edge_level` — because
    /// such a sample is what blocks all future left refinement. The held
    /// event is released by the next non-abutting emission or by
    /// [`finish`].
    ///
    /// [`finish`]: StreamingEmprof::finish
    pub fn drain_events(&mut self) -> Vec<StallEvent> {
        let mut out = Vec::new();
        self.drain_events_into(&mut out);
        out
    }

    /// [`drain_events`](StreamingEmprof::drain_events) into a
    /// caller-owned buffer: appends the newly stable events to `out`
    /// (which is *not* cleared) and returns how many were appended. A
    /// long-lived caller can reuse one scratch vector across drains
    /// instead of allocating per batch.
    pub fn drain_events_into(&mut self, out: &mut Vec<StallEvent>) -> usize {
        let mut stable = self.events.len();
        if !self.tail_sealed && matches!(self.last_run, Some((_, _, true))) && stable > 0 {
            stable -= 1;
        }
        let stable = stable.max(self.drained);
        let fresh = stable - self.drained;
        out.extend_from_slice(&self.events[self.drained..stable]);
        self.drained = stable;
        fresh
    }

    /// Number of samples pushed so far.
    pub fn samples_pushed(&self) -> usize {
        self.pushed
    }

    /// Number of non-finite samples rejected at the ingest boundary.
    pub fn samples_rejected(&self) -> usize {
        self.rejected
    }

    /// Current buffered-memory footprint in samples (bounded by one and
    /// a half normalization windows, or the calibration block in
    /// progress, plus the last batch pushed).
    pub fn buffered_samples(&self) -> usize {
        self.buf.len()
    }

    /// Progress counters for live monitoring: samples seen, events
    /// finalized, current buffer occupancy, and ingest throughput.
    pub fn stats(&self) -> StreamingStats {
        StreamingStats {
            samples_pushed: self.pushed,
            events_emitted: self.events.len(),
            samples_rejected: self.rejected,
            buffered_samples: self.buffered_samples(),
            samples_per_sec: self.started_at.and_then(|t0| {
                let secs = t0.elapsed().as_secs_f64();
                (secs > 0.0).then(|| self.pushed as f64 / secs)
            }),
        }
    }

    /// Flushes batched telemetry: the `detect.samples` counter plus the
    /// `stream.samples_per_sec` / `stream.buffer_samples` gauges.
    fn flush_obs(&mut self) {
        obs::counter_add!("detect.samples", self.unflushed as u64);
        self.unflushed = 0;
        if !obs::is_enabled() {
            return;
        }
        obs::gauge_set!("stream.buffer_samples", self.buffered_samples() as f64);
        if let Some(sps) = self.stats().samples_per_sec {
            obs::gauge_set!("stream.samples_per_sec", sps);
        }
    }

    /// Finalizes the capture: normalizes the tail (whose windows are
    /// truncated, exactly as in the batch detector), flushes pending
    /// events, and returns the complete [`Profile`].
    pub fn finish(mut self) -> Profile {
        let _s = obs::span!("stream.finish");
        self.advance(true);
        self.flush_obs();
        if obs::is_enabled() {
            // Widths are only final now (merges may have grown events), so
            // the histogram — unlike the counters — is recorded at the end.
            for e in &self.events {
                obs::histogram_record!(
                    "detect.event_width_samples",
                    (e.end_sample - e.start_sample) as u64
                );
                obs::histogram_record!("detect.stall_latency_cycles", e.duration_cycles as u64);
            }
            // Confidence is also only final now (merges recompute it),
            // so — like the batch paths — degraded events are counted
            // once per profile, at the end.
            let degraded = self
                .events
                .iter()
                .filter(|e| e.confidence == Confidence::Degraded)
                .count();
            obs::counter_add!("detect.confidence.events_degraded", degraded as u64);
        }
        Profile::new(
            self.events,
            self.pushed,
            self.sample_rate_hz,
            self.clock_hz,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::Emprof;

    const FS: f64 = 40e6;
    const CLK: f64 = 1.0e9;

    fn config() -> EmprofConfig {
        EmprofConfig::for_rates(FS, CLK)
    }

    fn batch(signal: &[f64]) -> Profile {
        Emprof::new(config()).profile_magnitude(signal, FS, CLK)
    }

    fn stream(signal: &[f64]) -> Profile {
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        s.extend(signal.iter().copied());
        s.finish()
    }

    fn dipped_signal(dips: &[(usize, usize)], len: usize) -> Vec<f64> {
        let mut v = vec![5.0; len];
        for &(start, width) in dips {
            for x in v.iter_mut().skip(start).take(width) {
                *x = 0.8;
            }
        }
        v
    }

    #[test]
    fn matches_batch_on_clean_dips() {
        let signal = dipped_signal(&[(5_000, 12), (9_000, 30), (15_000, 8)], 30_000);
        assert_eq!(stream(&signal).events(), batch(&signal).events());
    }

    #[test]
    fn matches_batch_with_merge_gaps() {
        // Dips separated by 1-2 samples must merge identically.
        let mut signal = dipped_signal(&[(5_000, 10)], 30_000);
        signal[5_011] = 0.8; // gap of 1 busy sample then more dip
        for v in signal.iter_mut().skip(5_012).take(8) {
            *v = 0.8;
        }
        assert_eq!(stream(&signal).events(), batch(&signal).events());
    }

    #[test]
    fn matches_batch_on_noisy_signal() {
        // Deterministic pseudo-noise plus dips.
        let mut signal: Vec<f64> = (0..60_000)
            .map(|i| 5.0 + ((i * 2654435761usize) % 1000) as f64 / 2000.0)
            .collect();
        for &start in &[10_000usize, 20_000, 30_000, 40_000] {
            for v in signal.iter_mut().skip(start).take(14) {
                *v = 0.7 + ((start * 31) % 100) as f64 / 1000.0;
            }
        }
        let s = stream(&signal);
        let b = batch(&signal);
        assert_eq!(s.events(), b.events());
    }

    #[test]
    fn matches_batch_with_gain_drift() {
        let mut signal: Vec<f64> = (0..80_000)
            .map(|i| 5.0 * (1.0 + 0.1 * (i as f64 * 2e-4).sin()))
            .collect();
        for k in 0..20usize {
            let start = 3_000 + k * 3_700;
            for v in signal.iter_mut().skip(start).take(12) {
                *v *= 0.15;
            }
        }
        assert_eq!(stream(&signal).events(), batch(&signal).events());
    }

    #[test]
    fn matches_batch_on_dip_at_capture_end() {
        let mut signal = dipped_signal(&[(5_000, 12)], 20_000);
        for v in signal.iter_mut().skip(19_990) {
            *v = 0.8;
        }
        assert_eq!(stream(&signal).events(), batch(&signal).events());
    }

    #[test]
    fn matches_batch_on_refresh_length_dips() {
        let signal = dipped_signal(&[(5_000, 100), (20_000, 12)], 40_000);
        let s = stream(&signal);
        let b = batch(&signal);
        assert_eq!(s.events(), b.events());
        assert_eq!(s.refresh_count(), 1);
    }

    #[test]
    fn memory_stays_bounded() {
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        let window = config().norm_window_samples;
        for i in 0..500_000usize {
            let v = if i % 5_000 < 12 { 0.8 } else { 5.0 };
            s.push(v);
            assert!(
                s.buffered_samples() <= 2 * window + 64,
                "buffer grew to {} at sample {i}",
                s.buffered_samples()
            );
        }
        let profile = s.finish();
        assert!(profile.miss_count() > 90);
    }

    #[test]
    fn drain_delivers_events_incrementally() {
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        let signal = dipped_signal(&[(5_000, 12), (40_000, 12)], 60_000);
        let mut drained = Vec::new();
        let mut first_seen_at = None;
        for (i, &v) in signal.iter().enumerate() {
            s.push(v);
            s.drain_events_into(&mut drained);
            if !drained.is_empty() && first_seen_at.is_none() {
                first_seen_at = Some(i);
            }
        }
        // The first dip must be delivered long before the capture ends.
        let at = first_seen_at.expect("an event was streamed");
        assert!(at < 20_000, "first event only delivered at sample {at}");
        // What was drained is final: a prefix of the finished profile,
        // which holds both dips (drained or delivered at finish).
        let profile = s.finish();
        assert_eq!(drained[..], profile.events()[..drained.len()]);
        assert_eq!(profile.events().len(), 2);
        assert_eq!(profile.events(), batch(&signal).events());
    }

    #[test]
    fn drained_events_never_go_stale() {
        // Two dips bridged by a shelf that sits above `threshold` (so the
        // raw dips do not merge) but below `edge_level` (so refinement of
        // the second dip reaches back and merges the *emitted* first
        // event in place). A drain between the two emits must withhold
        // the first event until it can no longer change; otherwise the
        // incremental view diverges from the batch profile.
        let mut signal = dipped_signal(&[(5_000, 8)], 30_000);
        for v in signal.iter_mut().skip(5_008).take(6) {
            *v = 2.1; // normalizes to ~0.42: above threshold, below edge
        }
        for v in signal.iter_mut().skip(5_014).take(8) {
            *v = 0.8; // the second dip
        }
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        let mut drained = Vec::new();
        for &v in &signal {
            s.push(v);
            drained.extend(s.drain_events());
        }
        let profile = s.finish();
        drained.extend_from_slice(&profile.events()[drained.len()..]);
        let b = batch(&signal);
        assert_eq!(drained, b.events());
        assert_eq!(profile.events(), b.events());
        // The merge really happened: one event spanning both dips.
        assert_eq!(b.events().len(), 1);
        assert!(b.events()[0].end_sample - b.events()[0].start_sample >= 20);
    }

    #[test]
    fn incremental_drain_matches_batch_on_noisy_signal() {
        // The same noisy signal as `matches_batch_on_noisy_signal`, but
        // consumed through per-push drains (the serve ingest pattern).
        let mut signal: Vec<f64> = (0..60_000)
            .map(|i| 5.0 + ((i * 2654435761usize) % 1000) as f64 / 2000.0)
            .collect();
        for &start in &[10_000usize, 20_000, 30_000, 40_000] {
            for v in signal.iter_mut().skip(start).take(14) {
                *v = 0.7 + ((start * 31) % 100) as f64 / 1000.0;
            }
        }
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        let mut drained = Vec::new();
        for chunk in signal.chunks(777) {
            s.extend(chunk.iter().copied());
            drained.extend(s.drain_events());
        }
        let profile = s.finish();
        drained.extend_from_slice(&profile.events()[drained.len()..]);
        assert_eq!(drained, batch(&signal).events());
    }

    #[test]
    fn empty_stream_is_empty_profile() {
        let s = StreamingEmprof::new(config(), FS, CLK);
        let profile = s.finish();
        assert_eq!(profile.events().len(), 0);
        assert_eq!(profile.total_samples(), 0);
    }

    #[test]
    fn flat_stream_has_no_events() {
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        s.extend(std::iter::repeat_n(3.3, 50_000));
        assert_eq!(s.finish().events().len(), 0);
    }

    #[test]
    fn non_finite_pushes_are_rejected_and_counted() {
        let clean = dipped_signal(&[(5_000, 12), (9_120, 30)], 30_000);
        let mut dirty = Vec::with_capacity(clean.len() + 64);
        let mut injected = 0usize;
        for (i, &v) in clean.iter().enumerate() {
            if i % 761 == 0 {
                dirty.push([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3]);
                injected += 1;
            }
            dirty.push(v);
        }
        let mut s = StreamingEmprof::new(config(), FS, CLK);
        s.extend(dirty.iter().copied());
        assert_eq!(s.samples_rejected(), injected);
        assert_eq!(s.stats().samples_rejected, injected);
        assert_eq!(s.samples_pushed(), clean.len());
        let profile = s.finish();
        // Identical to batch on the same dirty input — including the
        // degraded-confidence marks on events straddling a collapsed
        // gap (the second dip [9_120, 9_150) spans survivor position
        // 9_132 = 761 * 12, where an injected sample was dropped).
        let b = Emprof::new(config()).profile_magnitude(&dirty, FS, CLK);
        assert_eq!(profile.events(), b.events());
        assert!(profile.degraded_count() >= 1, "gap-touching event not degraded");
        // Apart from confidence, events match the clean signal's.
        let bc = batch(&clean);
        assert_eq!(profile.events().len(), bc.events().len());
        for (d, c) in profile.events().iter().zip(bc.events()) {
            assert_eq!(
                (d.start_sample, d.end_sample, d.kind),
                (c.start_sample, c.end_sample, c.kind)
            );
        }
        assert_eq!(profile.total_samples(), clean.len());
    }

    fn adaptive_config() -> EmprofConfig {
        let mut c = config();
        c.calib = crate::calib::CalibConfig::adaptive();
        c
    }

    /// A drifting, noisy capture that exercises threshold adaptation,
    /// window shrink, and the contrast gate.
    fn drifting_signal(len: usize) -> Vec<f64> {
        let mut s: Vec<f64> = (0..len)
            .map(|i| {
                let atten = 1.0 - 0.85 * (i as f64 / len as f64);
                let noise = ((i * 2_654_435_761usize) % 1000) as f64 / 1000.0 * 0.08;
                5.0 * atten + noise
            })
            .collect();
        let mut k = 0usize;
        while 3_000 + k * 5_500 + 14 < len {
            let start = 3_000 + k * 5_500;
            for v in s.iter_mut().skip(start).take(14) {
                *v *= 0.12;
            }
            k += 1;
        }
        s
    }

    #[test]
    fn adaptive_streaming_matches_adaptive_batch() {
        let signal = drifting_signal(90_000);
        let b = Emprof::new(adaptive_config()).profile_magnitude(&signal, FS, CLK);
        let mut s = StreamingEmprof::new(adaptive_config(), FS, CLK);
        s.extend(signal.iter().copied());
        assert_eq!(s.finish(), b);
    }

    #[test]
    fn adaptive_streaming_incremental_drain_matches_batch() {
        let signal = drifting_signal(90_000);
        let b = Emprof::new(adaptive_config()).profile_magnitude(&signal, FS, CLK);
        let mut s = StreamingEmprof::new(adaptive_config(), FS, CLK);
        let mut drained = Vec::new();
        for chunk in signal.chunks(997) {
            s.extend(chunk.iter().copied());
            drained.extend(s.drain_events());
        }
        let profile = s.finish();
        drained.extend_from_slice(&profile.events()[drained.len()..]);
        assert_eq!(drained, b.events());
        assert_eq!(profile.events(), b.events());
    }

    #[test]
    fn adaptive_memory_stays_bounded() {
        let mut s = StreamingEmprof::new(adaptive_config(), FS, CLK);
        let window = config().norm_window_samples;
        for i in 0..200_000usize {
            let v = if i % 5_000 < 12 { 0.8 } else { 5.0 };
            s.push(v);
            assert!(
                s.buffered_samples() <= 2 * window + 64,
                "buffer grew to {} at sample {i}",
                s.buffered_samples()
            );
        }
        let profile = s.finish();
        assert!(profile.miss_count() > 30);
    }
}
