//! Detector configuration.

use crate::calib::CalibConfig;
use crate::profile::{Confidence, StallEvent, StallKind};

/// Tuning parameters of the EMPROF detector.
///
/// The defaults implement the paper's guidance: the normalization window
/// is long enough that even a refresh-collision stall (2–3 µs) cannot
/// drag the moving maximum down, and the duration threshold sits
/// "significantly shorter than the LLC latency but significantly longer
/// than typical on-chip latencies" (Section IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmprofConfig {
    /// Moving min/max window, in samples.
    pub norm_window_samples: usize,
    /// Normalized level below which a sample counts as "stalled".
    pub threshold: f64,
    /// Minimum dip duration, in core cycles, for it to be reported
    /// (the on-chip/LLC discrimination threshold).
    pub min_duration_cycles: f64,
    /// Minimum dip duration in *samples*: a dip must be resolved by at
    /// least this many capture samples to be trusted. This is what makes
    /// the measurement bandwidth matter (Fig. 12): at 20 MHz a sample
    /// spans ~50 cycles, so short stalls become unresolvable even though
    /// they exceed `min_duration_cycles`.
    pub min_duration_samples: usize,
    /// Dips separated by at most this many samples are merged (noise can
    /// briefly poke a long dip above threshold).
    pub merge_gap_samples: usize,
    /// After thresholding, event edges are extended outward while the
    /// normalized signal stays below this level, recovering duration lost
    /// to the receiver's band-limiting. Set equal to `threshold` to
    /// disable refinement.
    pub edge_level: f64,
    /// Stalls at least this many cycles long are classified as
    /// DRAM-refresh collisions (Fig. 5: ~2–3 µs vs ~300 ns normal).
    pub refresh_min_cycles: f64,
    /// Online probe calibration (adaptive threshold/window under probe
    /// drift, DESIGN.md §15). Off by default; when off, every detector
    /// path is bit-identical to the static detector.
    pub calib: CalibConfig,
}

impl EmprofConfig {
    /// Derives a configuration from the capture sample rate and the
    /// profiled core's clock: the normalization window spans ~50 µs of
    /// signal and the duration threshold is 100 core cycles.
    ///
    /// # Panics
    ///
    /// Panics unless both rates are positive and finite.
    pub fn for_rates(sample_rate_hz: f64, clock_hz: f64) -> Self {
        assert!(
            sample_rate_hz > 0.0 && sample_rate_hz.is_finite(),
            "sample rate must be positive, got {sample_rate_hz}"
        );
        assert!(
            clock_hz > 0.0 && clock_hz.is_finite(),
            "clock must be positive, got {clock_hz}"
        );
        let norm_window = (50e-6 * sample_rate_hz).round() as usize;
        EmprofConfig {
            norm_window_samples: norm_window.max(64),
            threshold: 0.35,
            // "Significantly shorter than the LLC latency but
            // significantly longer than typical on-chip latencies"
            // (Section IV): the shortest LLC-miss stalls (the Alcatel's
            // fast LPDDR memory) run ~130 cycles; bursts of back-to-back
            // LLC-*hit* fetch stalls blur into dips of ~100 cycles, so
            // the threshold sits between them.
            min_duration_cycles: 120.0,
            min_duration_samples: 5,
            merge_gap_samples: 2,
            edge_level: 0.5,
            refresh_min_cycles: 1200.0,
            calib: CalibConfig::off(),
        }
    }

    /// The duration filter floor, in samples, at `cps` core cycles per
    /// sample.
    pub(crate) fn min_event_samples(&self, cps: f64) -> f64 {
        (self.min_duration_cycles / cps).max(self.min_duration_samples as f64)
    }

    /// The stall event over samples `[start, end)` at `cps` core cycles
    /// per sample, classified by its duration, at high confidence.
    pub(crate) fn stall_event(&self, start: usize, end: usize, cps: f64) -> StallEvent {
        let duration_cycles = (end - start) as f64 * cps;
        StallEvent {
            start_sample: start,
            end_sample: end,
            duration_cycles,
            kind: if duration_cycles >= self.refresh_min_cycles {
                StallKind::RefreshCollision
            } else {
                StallKind::Normal
            },
            confidence: Confidence::High,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.norm_window_samples == 0 {
            return Err("normalization window must be nonzero".into());
        }
        if !(0.0 < self.threshold && self.threshold < 1.0) {
            return Err(format!(
                "threshold must be in (0, 1), got {}",
                self.threshold
            ));
        }
        if !(self.edge_level >= self.threshold && self.edge_level < 1.0) {
            return Err(format!(
                "edge level {} must be in [threshold, 1)",
                self.edge_level
            ));
        }
        if !(self.min_duration_cycles > 0.0 && self.min_duration_cycles.is_finite()) {
            return Err(format!(
                "minimum duration must be positive, got {}",
                self.min_duration_cycles
            ));
        }
        if self.min_duration_samples == 0 {
            return Err("minimum duration in samples must be nonzero".into());
        }
        if self.refresh_min_cycles.partial_cmp(&self.min_duration_cycles)
            != Some(std::cmp::Ordering::Greater)
        {
            return Err(format!(
                "refresh threshold ({}) must exceed the minimum duration ({})",
                self.refresh_min_cycles, self.min_duration_cycles
            ));
        }
        self.calib.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rates_give_sane_defaults() {
        // Olimex at 40 MHz bandwidth.
        let c = EmprofConfig::for_rates(40e6, 1.008e9);
        c.validate().unwrap();
        assert_eq!(c.norm_window_samples, 2000); // 50 us at 40 MS/s
        // 100-cycle minimum ~ 4 samples at 25.2 cycles/sample.
        assert!((c.min_duration_cycles - 120.0).abs() < 1e-9);
        assert_eq!(c.min_duration_samples, 5);
    }

    #[test]
    fn simulator_rates_give_sane_defaults() {
        // SESC path: 20-cycle averaging of a 1 GHz trace = 50 MS/s.
        let c = EmprofConfig::for_rates(50e6, 1.0e9);
        c.validate().unwrap();
        assert!(c.norm_window_samples >= 64);
    }

    #[test]
    fn rejects_bad_threshold() {
        let mut c = EmprofConfig::for_rates(40e6, 1e9);
        c.threshold = 0.0;
        assert!(c.validate().is_err());
        c.threshold = 1.2;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_edge_below_threshold() {
        let mut c = EmprofConfig::for_rates(40e6, 1e9);
        c.edge_level = c.threshold - 0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_refresh_below_min_duration() {
        let mut c = EmprofConfig::for_rates(40e6, 1e9);
        c.refresh_min_cycles = 50.0;
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn zero_sample_rate_panics() {
        EmprofConfig::for_rates(0.0, 1e9);
    }
}
