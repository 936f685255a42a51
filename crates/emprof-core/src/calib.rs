//! Online probe calibration: adaptive normalization and detection
//! thresholds under probe drift (DESIGN.md §15).
//!
//! EMPROF's moving min/max normalization is scale-invariant, so a pure
//! attenuation change (the probe sliding away from the chip) is
//! invisible — **until receiver noise stops being negligible** relative
//! to the attenuated dip contrast. From then on the static detector
//! degrades silently: dipless windows normalize their noise floor across
//! `[0, 1]` and sprout false events, and true dips fragment as their
//! shoulders ride above the fixed threshold. This module makes drift
//! tolerance *active*:
//!
//! * a [`Calibrator`] tracks per-block contrast (dip SNR) and noise
//!   estimates and derives a **parameter schedule** — per-block detection
//!   threshold, edge level, normalization window, and a contrast gate
//!   (see `emprof_signal::fused::detect_runs_range_gated`);
//! * a degraded→recovered **confidence state machine** flags events
//!   detected while the noise fraction is too high to trust, counting
//!   transitions in `detect.confidence.*` telemetry;
//! * the schedule is **causal and block-aligned**: parameters for block
//!   `k` depend only on blocks `0..k`, and change only at fixed absolute
//!   block boundaries. That is what keeps the batch, parallel, and
//!   streaming paths bit-identical — all three drive the one resumable
//!   kernel under the same schedule (`crate::driver`), then share the
//!   stitched merge/refine/filter back half.
//!
//! With [`CalibConfig::enabled`]` == false` (the default) the schedule is
//! constant: one block spanning the whole signal, under the base
//! parameters. The [`Calibrator`] then observes nothing, so static mode
//! reads no extra samples and emits no `calib.*` telemetry.

use std::collections::VecDeque;

use emprof_obs as obs;
use emprof_signal::fused::KernelParams;

use crate::config::EmprofConfig;
use crate::detect::sanitize_magnitude;
use crate::profile::{Confidence, StallEvent};
use crate::Emprof;

/// Converts the mean absolute successive difference of a block into a
/// peak-to-peak noise-span estimate. For i.i.d. uniform noise of span
/// `2a`, successive differences average `2a/3`, so the factor is 3.
const NOISE_SPAN_FACTOR: f64 = 3.0;

/// How many recent block ranges the dip-contrast estimator keeps: the
/// max over this ring tracks the contrast of dip-bearing windows while
/// staying robust to dipless blocks (whose range is pure noise).
const CONTRAST_RING: usize = 8;

/// Configuration of the online calibration loop ([`Calibrator`]).
///
/// Carried inside [`EmprofConfig`]; [`CalibConfig::off`] (the default)
/// disables adaptation entirely and keeps every detector path
/// bit-identical to the static detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibConfig {
    /// Master switch. Off by default.
    pub enabled: bool,
    /// Calibration block length in samples; parameters are constant
    /// within a block and may change only at block boundaries. `0` means
    /// "use the normalization window". Ignored when disabled.
    pub block_samples: usize,
    /// EWMA weight given to each new block's statistics, in `(0, 1]`.
    pub ewma_weight: f64,
    /// Safety pad added to the measured noise fraction when raising the
    /// detection threshold.
    pub threshold_pad: f64,
    /// Ceiling for the adapted detection threshold, in `(0, 1)`.
    pub threshold_max: f64,
    /// Contrast gate as a fraction of the recent dip-contrast estimate:
    /// windows whose range falls below `gate_fraction * contrast` are
    /// treated as dipless and normalize flat. `0` disables the gate.
    pub gate_fraction: f64,
    /// Noise fraction at or above which the confidence state machine
    /// enters `Degraded`.
    pub degraded_enter: f64,
    /// Noise fraction at or below which it recovers to `High`
    /// (hysteresis: must be `<= degraded_enter`).
    pub degraded_exit: f64,
    /// Floor for the adapted normalization window, in samples.
    pub window_min: usize,
    /// Busy-level drift per block (relative) above which the
    /// normalization window shrinks — fast drift inside one window
    /// inflates the min/max range with fake contrast, so the window
    /// contracts until the drift it spans is back under this tolerance.
    pub drift_tolerance: f64,
}

impl CalibConfig {
    /// Adaptation disabled (the default): the static detector, bit for
    /// bit.
    pub fn off() -> Self {
        CalibConfig {
            enabled: false,
            ..CalibConfig::adaptive()
        }
    }

    /// Adaptation enabled with the tuned defaults.
    pub fn adaptive() -> Self {
        CalibConfig {
            enabled: true,
            block_samples: 0,
            ewma_weight: 0.25,
            threshold_pad: 0.05,
            threshold_max: 0.75,
            gate_fraction: 0.45,
            degraded_enter: 0.45,
            degraded_exit: 0.30,
            window_min: 256,
            drift_tolerance: 0.2,
        }
    }

    /// The resolved block length for a given normalization window;
    /// `usize::MAX` when disabled (one block spans any signal).
    pub(crate) fn block(&self, norm_window: usize) -> usize {
        if !self.enabled {
            usize::MAX
        } else if self.block_samples == 0 {
            norm_window.max(1)
        } else {
            self.block_samples
        }
    }

    /// Validates the parameters (called from [`EmprofConfig::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.ewma_weight && self.ewma_weight <= 1.0) {
            return Err(format!(
                "calibration EWMA weight must be in (0, 1], got {}",
                self.ewma_weight
            ));
        }
        if !(0.0 < self.threshold_max && self.threshold_max < 1.0) {
            return Err(format!(
                "adaptive threshold ceiling must be in (0, 1), got {}",
                self.threshold_max
            ));
        }
        if !(self.threshold_pad >= 0.0 && self.threshold_pad.is_finite()) {
            return Err(format!(
                "threshold pad must be finite and non-negative, got {}",
                self.threshold_pad
            ));
        }
        if !(0.0..=1.0).contains(&self.gate_fraction) {
            return Err(format!(
                "contrast gate fraction must be in [0, 1], got {}",
                self.gate_fraction
            ));
        }
        if !(0.0 < self.degraded_exit
            && self.degraded_exit <= self.degraded_enter
            && self.degraded_enter <= 1.0)
        {
            return Err(format!(
                "degraded hysteresis must satisfy 0 < exit <= enter <= 1, got exit {} enter {}",
                self.degraded_exit, self.degraded_enter
            ));
        }
        if self.window_min == 0 {
            return Err("adaptive window floor must be nonzero".into());
        }
        if !(self.drift_tolerance > 0.0 && self.drift_tolerance.is_finite()) {
            return Err(format!(
                "drift tolerance must be positive, got {}",
                self.drift_tolerance
            ));
        }
        Ok(())
    }
}

/// Detector parameters in force for one calibration block. Derived
/// causally from the blocks before it, so every detector path computes
/// the identical schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockParams {
    /// Normalization window for this block, in samples.
    pub window: usize,
    /// Detection threshold for this block.
    pub threshold: f64,
    /// Edge-refinement level for this block.
    pub edge_level: f64,
    /// Contrast gate: windows with `max - min <= min_range` normalize
    /// flat (see `detect_runs_range_gated`).
    pub min_range: f64,
    /// Whether the confidence state machine is in the degraded state for
    /// this block; events ending here carry [`Confidence::Degraded`].
    pub degraded: bool,
}

impl BlockParams {
    /// The fused-kernel parameters of this block.
    pub(crate) fn kernel(&self) -> KernelParams {
        KernelParams {
            window: self.window,
            threshold: self.threshold,
            edge_level: self.edge_level,
            min_range: self.min_range,
        }
    }
}

/// The online calibration loop: feed it completed blocks in order via
/// [`observe_block`](Calibrator::observe_block), read the parameters for
/// the *next* block via [`params`](Calibrator::params).
///
/// Before the first observed block it returns the base (static)
/// configuration, which makes the schedule causal: block `k`'s
/// parameters depend only on blocks `0..k`. With calibration disabled it
/// observes nothing and always returns the base configuration.
#[derive(Debug, Clone)]
pub struct Calibrator {
    cfg: CalibConfig,
    base_window: usize,
    base_threshold: f64,
    base_edge: f64,
    /// `edge_level - threshold` of the base config, preserved as the
    /// adapted threshold rises.
    edge_margin: f64,
    inited: bool,
    /// Recent block ranges; the max estimates dip contrast.
    ranges: VecDeque<f64>,
    /// EWMA of the per-block mean absolute successive difference.
    noise_ew: f64,
    /// Previous block's maximum (busy level), for drift estimation.
    hi_prev: f64,
    /// EWMA of relative busy-level drift per block.
    drift_ew: f64,
    degraded: bool,
    /// degraded→ / →recovered transition counts (mirrors the
    /// `detect.confidence.*` counters, for direct inspection).
    pub transitions: (u64, u64),
}

impl Calibrator {
    /// Creates a calibrator for the given detector configuration.
    pub fn new(config: &EmprofConfig) -> Self {
        Calibrator {
            cfg: config.calib,
            base_window: config.norm_window_samples,
            base_threshold: config.threshold,
            base_edge: config.edge_level,
            edge_margin: config.edge_level - config.threshold,
            inited: false,
            ranges: VecDeque::with_capacity(CONTRAST_RING),
            noise_ew: 0.0,
            hi_prev: 0.0,
            drift_ew: 0.0,
            degraded: false,
            transitions: (0, 0),
        }
    }

    /// Recent dip-contrast estimate: the max block range over the ring.
    fn contrast(&self) -> f64 {
        self.ranges.iter().copied().fold(0.0, f64::max)
    }

    /// Estimated peak-to-peak noise span.
    fn noise_span(&self) -> f64 {
        NOISE_SPAN_FACTOR * self.noise_ew
    }

    /// Noise span as a fraction of the dip contrast, in `[0, 1]`.
    pub fn noise_fraction(&self) -> f64 {
        let c = self.contrast();
        if c > 0.0 {
            (self.noise_span() / c).min(1.0)
        } else {
            0.0
        }
    }

    /// Parameters for the next (not yet observed) block.
    pub fn params(&self) -> BlockParams {
        if !self.inited {
            return BlockParams {
                window: self.base_window,
                threshold: self.base_threshold,
                edge_level: self.base_edge,
                min_range: 0.0,
                degraded: false,
            };
        }
        let q = self.noise_fraction();
        let threshold = (q + self.cfg.threshold_pad)
            .clamp(self.base_threshold, self.cfg.threshold_max.max(self.base_threshold));
        let edge_level = (threshold + self.edge_margin).min(0.95).max(threshold);
        // Fast drift inflates a window's min/max range with fake
        // contrast; shrink the window until the drift it spans is back
        // under tolerance. The window only ever shrinks from the base,
        // which also bounds the lookahead every path needs.
        let block = self.cfg.block(self.base_window) as f64;
        let drift_per_sample = self.drift_ew / block;
        let window = if drift_per_sample * (self.base_window as f64) > self.cfg.drift_tolerance {
            let fit = (self.cfg.drift_tolerance / drift_per_sample) as usize;
            fit.clamp(self.cfg.window_min.min(self.base_window), self.base_window)
        } else {
            self.base_window
        };
        BlockParams {
            window,
            threshold,
            edge_level,
            min_range: self.cfg.gate_fraction * self.contrast(),
            degraded: self.degraded,
        }
    }

    /// Folds one completed block of (finite) samples into the estimates
    /// and steps the confidence state machine. Blocks must be fed in
    /// order; all paths feed the identical block slices.
    pub fn observe_block(&mut self, block: &[f64]) {
        if !self.cfg.enabled || block.is_empty() {
            return;
        }
        let mut hi = f64::NEG_INFINITY;
        let mut lo = f64::INFINITY;
        for &v in block {
            if v > hi {
                hi = v;
            }
            if v < lo {
                lo = v;
            }
        }
        let range = hi - lo;
        let masd = if block.len() > 1 {
            let mut acc = 0.0;
            for w in block.windows(2) {
                acc += (w[1] - w[0]).abs();
            }
            acc / (block.len() - 1) as f64
        } else {
            0.0
        };
        if self.ranges.len() == CONTRAST_RING {
            self.ranges.pop_front();
        }
        self.ranges.push_back(range);
        let a = self.cfg.ewma_weight;
        if !self.inited {
            self.noise_ew = masd;
            self.hi_prev = hi;
            self.drift_ew = 0.0;
            self.inited = true;
        } else {
            self.noise_ew += a * (masd - self.noise_ew);
            let denom = self.hi_prev.abs().max(1e-12);
            let drift = (hi - self.hi_prev).abs() / denom;
            self.drift_ew += a * (drift - self.drift_ew);
            self.hi_prev = hi;
        }
        let q = self.noise_fraction();
        if !self.degraded && q >= self.cfg.degraded_enter {
            self.degraded = true;
            self.transitions.0 += 1;
            obs::counter_add!("detect.confidence.degraded", 1);
        } else if self.degraded && q <= self.cfg.degraded_exit {
            self.degraded = false;
            self.transitions.1 += 1;
            obs::counter_add!("detect.confidence.recovered", 1);
        }
        if obs::is_enabled() {
            obs::counter_add!("calib.blocks", 1);
            obs::gauge_set!("calib.noise_fraction", q);
            let p = self.params();
            obs::gauge_set!("calib.threshold", p.threshold);
            obs::gauge_set!("calib.window", p.window as f64);
            obs::gauge_set!("calib.min_range", p.min_range);
        }
    }

    /// Whether the state machine currently reports degraded confidence.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }
}

/// Computes the full causal parameter schedule for a (sanitized) signal:
/// entry `k` governs samples `[k * block, (k + 1) * block)`. One cheap
/// sequential pass (none in static mode, whose single entry reads no
/// samples); batch, parallel, and streaming all reproduce exactly this
/// sequence.
pub(crate) fn compute_schedule(config: &EmprofConfig, signal: &[f64]) -> Vec<BlockParams> {
    let block = config.calib.block(config.norm_window_samples);
    let blocks = signal.len().div_ceil(block);
    let mut cal = Calibrator::new(config);
    let mut out = Vec::with_capacity(blocks);
    for k in 0..blocks {
        out.push(cal.params());
        let end = (k + 1).saturating_mul(block).min(signal.len());
        cal.observe_block(&signal[k * block..end]);
    }
    out
}

/// Marks events that touch a collapsed dropout gap as
/// [`Confidence::Degraded`]: a gap at survivor position `p` sits between
/// samples `p - 1` and `p`, and an event over `[start, end)` touches it
/// when `start <= p <= end + 1` (the same criterion as
/// `emprof_fault::flag_degraded`). Events and gap points must both be
/// sorted. Returns how many events were (newly) degraded.
pub(crate) fn mark_gap_degraded(events: &mut [StallEvent], gaps: &[usize]) -> usize {
    let mut marked = 0;
    let mut cursor = 0usize;
    for e in events.iter_mut() {
        while cursor < gaps.len() && gaps[cursor] + 1 < e.start_sample {
            cursor += 1;
        }
        if gaps[cursor..]
            .iter()
            .take_while(|&&p| p <= e.end_sample + 1)
            .any(|&p| e.start_sample <= p)
        {
            if e.confidence != Confidence::Degraded {
                marked += 1;
            }
            e.confidence = Confidence::Degraded;
        }
    }
    marked
}

impl Emprof {
    /// The per-block parameter schedule the detector uses on
    /// `magnitude` (non-finite samples dropped first) — entry `k`
    /// governs samples `[k * block, (k + 1) * block)` of the survivor
    /// signal (in static mode, one entry governs them all). Exposed for
    /// inspection and tests; detection itself goes through
    /// [`Emprof::profile_magnitude`].
    pub fn calibration_schedule(&self, magnitude: &[f64]) -> Vec<BlockParams> {
        let (survivors, _, _) = sanitize_magnitude(magnitude);
        compute_schedule(&self.config(), &survivors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::StallKind;

    fn base_config() -> EmprofConfig {
        let mut c = EmprofConfig::for_rates(40e6, 1.0e9);
        c.calib = CalibConfig::adaptive();
        c
    }

    #[test]
    fn first_block_uses_base_parameters() {
        let cal = Calibrator::new(&base_config());
        let p = cal.params();
        assert_eq!(p.window, 2000);
        assert!((p.threshold - 0.35).abs() < 1e-12);
        assert_eq!(p.min_range, 0.0);
        assert!(!p.degraded);
    }

    #[test]
    fn noisy_attenuated_blocks_raise_threshold_and_enter_degraded() {
        let cfg = base_config();
        let mut cal = Calibrator::new(&cfg);
        // Establish contrast: a dip-bearing clean block, range ~5.
        let mut blk: Vec<f64> = vec![5.0; 2000];
        for v in blk.iter_mut().skip(400).take(12) {
            *v = 0.5;
        }
        cal.observe_block(&blk);
        let clean = cal.params();
        assert!((clean.threshold - 0.35).abs() < 1e-9, "clean stays at base");
        assert!(!clean.degraded);
        // Heavy attenuation + noise: contrast collapses toward the noise
        // span, the noise fraction rises, threshold tracks up, and the
        // state machine degrades.
        for r in 0..CONTRAST_RING + 4 {
            let noisy: Vec<f64> = (0..2000)
                .map(|i| {
                    let noise = ((i * 2_654_435_761usize + r) % 1000) as f64 / 1000.0 * 0.4;
                    let dip = if (400..412).contains(&i) { 0.02 } else { 0.25 };
                    dip + noise
                })
                .collect();
            cal.observe_block(&noisy);
        }
        let p = cal.params();
        assert!(p.threshold > 0.4, "threshold did not adapt: {}", p.threshold);
        assert!(p.edge_level >= p.threshold);
        assert!(p.min_range > 0.0, "contrast gate not engaged");
        assert!(cal.is_degraded());
        assert_eq!(cal.transitions.0, 1);
        // Recovery: clean contrast returns.
        for _ in 0..CONTRAST_RING + 4 {
            let mut blk: Vec<f64> = vec![5.0; 2000];
            for v in blk.iter_mut().skip(400).take(12) {
                *v = 0.5;
            }
            cal.observe_block(&blk);
        }
        assert!(!cal.is_degraded(), "state machine never recovered");
        assert_eq!(cal.transitions.1, 1);
    }

    #[test]
    fn fast_drift_shrinks_window() {
        let cfg = base_config();
        let mut cal = Calibrator::new(&cfg);
        // Busy level halving every block: enormous drift.
        let mut level = 8.0;
        for _ in 0..6 {
            let blk: Vec<f64> = vec![level; 2000];
            cal.observe_block(&blk);
            level *= 0.5;
        }
        let p = cal.params();
        assert!(
            p.window < cfg.norm_window_samples,
            "window did not shrink: {}",
            p.window
        );
        assert!(p.window >= cfg.calib.window_min);
    }

    #[test]
    fn schedule_is_causal_prefix_stable() {
        // The schedule over a prefix must be a prefix of the schedule
        // over the whole signal — the property the streaming path needs.
        let cfg = base_config();
        let signal: Vec<f64> = (0..20_000)
            .map(|i| {
                let atten = 1.0 - 0.8 * (i as f64 / 20_000.0);
                5.0 * atten + ((i * 2_654_435_761usize) % 1000) as f64 / 1000.0 * 0.2
            })
            .collect();
        let full = compute_schedule(&cfg, &signal);
        let prefix = compute_schedule(&cfg, &signal[..8_000]);
        assert_eq!(&full[..prefix.len() - 1], &prefix[..prefix.len() - 1]);
    }

    #[test]
    fn gap_marking_matches_flag_criterion() {
        let ev = |s: usize, e: usize| StallEvent {
            start_sample: s,
            end_sample: e,
            duration_cycles: 100.0,
            kind: StallKind::Normal,
            confidence: Confidence::High,
        };
        let mut events = [ev(0, 2), ev(5, 9), ev(20, 25)];
        let marked = mark_gap_degraded(&mut events, &[3, 6]);
        assert_eq!(marked, 2);
        assert_eq!(events[0].confidence, Confidence::Degraded);
        assert_eq!(events[1].confidence, Confidence::Degraded);
        assert_eq!(events[2].confidence, Confidence::High);
    }
}
