//! Due-time accounting for the open-loop rig generator.
//!
//! A capture rig emits samples at a fixed rate whether or not the
//! backend keeps up, so every sample has a due time fixed in advance:
//! `start + index / rate`. Latencies are measured from due times, which
//! charges a stall to every later frame it delays instead of hiding it
//! behind a generator that waited for the system.

use std::time::{Duration, Instant};

/// A fixed-rate schedule of sample due times.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    samples_per_s: f64,
}

impl Schedule {
    /// A schedule whose sample 0 is due at `start`.
    pub fn new(start: Instant, samples_per_s: f64) -> Schedule {
        assert!(samples_per_s > 0.0, "sample rate must be positive");
        Schedule {
            start,
            samples_per_s,
        }
    }

    /// Offset from `start` at which sample `index` is due.
    pub fn offset(&self, index: u64) -> Duration {
        Duration::from_secs_f64(index as f64 / self.samples_per_s)
    }

    /// When sample `index` is due.
    pub fn due(&self, index: u64) -> Instant {
        self.start + self.offset(index)
    }

    /// When a frame holding samples `[first, first + len)` is due: the
    /// rig can send it once its last sample exists.
    pub fn frame_due(&self, first: u64, len: u64) -> Instant {
        self.due(first + len.max(1) - 1)
    }

    /// How late `at` is against `due`; zero when early.
    pub fn lateness(due: Instant, at: Instant) -> Duration {
        at.saturating_duration_since(due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1_000_000.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.offset(1_000_000), Duration::from_secs(1));
        assert_eq!(s.offset(2_500), Duration::from_micros(2_500));
    }

    #[test]
    fn frame_is_due_with_its_last_sample() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1_000.0);
        // Samples 10..20 at 1 kHz: the last one is due at 19 ms.
        assert_eq!(s.frame_due(10, 10), t0 + Duration::from_millis(19));
        assert_eq!(s.frame_due(0, 0), t0);
    }

    #[test]
    fn lateness_counts_only_overruns() {
        let t0 = Instant::now();
        let due = t0 + Duration::from_millis(5);
        assert_eq!(Schedule::lateness(due, t0), Duration::ZERO);
        assert_eq!(
            Schedule::lateness(due, due + Duration::from_millis(3)),
            Duration::from_millis(3)
        );
    }

    #[test]
    fn a_stall_is_charged_to_every_later_frame() {
        // One frame per ms; the sender stalls 10 ms before frame 2 and
        // then sends back to back, 0.1 ms apart.
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1_000.0);
        let sent = |k: u64| t0 + Duration::from_millis(12) + Duration::from_micros(100 * k);
        let lates: Vec<Duration> = (2..6)
            .map(|k| Schedule::lateness(s.frame_due(k, 1), sent(k - 2)))
            .collect();
        assert_eq!(lates[0], Duration::from_millis(10));
        // Later frames are still late, by the backlog minus catch-up.
        assert!(lates.iter().all(|d| *d >= Duration::from_millis(7)));
    }
}
