//! Multi-core dip detection with overlap-merge equivalence.
//!
//! [`Emprof::profile_magnitude_par`] splits the capture into per-worker
//! chunks, advances one [`BlockDriver`] per chunk on a scoped worker
//! pool, and stitches the per-chunk results back into exactly the event
//! stream the batch detector produces. The equivalence argument
//! (DESIGN.md §8) has three legs:
//!
//! 1. **Normalization** — each chunk's resumable fused kernel reads
//!    moving-extreme context from the full signal, so every chunk sample
//!    is normalized to the bit-identical value the batch pass produces;
//!    the overlap margin (`norm_window / 2` on each side) is implicit in
//!    the shared full-signal slice. In adaptive mode every chunk runs
//!    under the one schedule computed before the fan-out, split at the
//!    same block boundaries. The normalized values themselves are never
//!    materialized — only their below-level runs leave the kernel.
//! 2. **Below-level runs** — runs found per chunk over disjoint core
//!    ranges concatenate to the batch run lists, except that a run
//!    straddling a seam arrives split into abutting pieces. The shared
//!    stitcher ([`StitchedRuns::stitch`]) rejoins them exactly as it
//!    rejoins a stream's frame and block seams; each chunk-seam rejoin is
//!    counted in the `par.merge_fixups` gauge.
//! 3. **Edge refinement and classification** — both run on the stitched
//!    run lists through literally the same code as the batch path
//!    ([`crate::detect::refine_from_runs`]).
//!
//! Net: for any thread count and any input, the parallel profile is
//! event-for-event (in fact bit-for-bit) identical to
//! [`Emprof::profile_magnitude`].

use emprof_obs as obs;
use emprof_par::chunk::ChunkPlan;
use emprof_par::{pool, Parallelism};

use crate::calib::BlockParams;
use crate::detect::Emprof;
use crate::driver::{BlockDriver, StitchedRuns};
use crate::profile::Profile;

impl Emprof {
    /// Parallel [`profile_magnitude`](Emprof::profile_magnitude): same
    /// arguments, same result, fanned out over `par` workers.
    ///
    /// With a sequential [`Parallelism`] this *is* the batch detector
    /// (same code path), which is what `--threads 1` relies on. Otherwise
    /// the capture is chunked per worker and the results are stitched as
    /// described in the module docs; the output `Profile` is identical to
    /// the batch detector's for any thread count.
    ///
    /// Emits the same `detect.samples` / `detect.events` /
    /// `detect.refresh_events` counters and `detect.event_width_samples`
    /// histogram as the batch path, plus `par.chunks`, `par.threads` and
    /// `par.merge_fixups` gauges describing the chunking itself.
    pub fn profile_magnitude_par(
        &self,
        magnitude: &[f64],
        sample_rate_hz: f64,
        clock_hz: f64,
        par: Parallelism,
    ) -> Profile {
        if par.is_sequential() {
            return self.profile_magnitude(magnitude, sample_rate_hz, clock_hz);
        }
        let _span = obs::span!("par.profile");
        self.profile(magnitude, sample_rate_hz, clock_hz, par)
    }

    /// One [`BlockDriver`] per chunk of `signal`, each under `schedule`,
    /// stitched in chunk order.
    ///
    /// # Errors
    ///
    /// `Err(i)` when some chunk read a non-finite sample `i`.
    pub(crate) fn detect_chunked(
        &self,
        signal: &[f64],
        schedule: &[BlockParams],
        par: Parallelism,
    ) -> Result<StitchedRuns, usize> {
        let cfg = self.config();
        let plan = ChunkPlan::new(signal.len(), par.get(), cfg.norm_window_samples / 2);
        obs::gauge_set!("par.chunks", plan.count() as f64);
        obs::gauge_set!("par.threads", par.get().min(plan.count()) as f64);
        let parts = pool::parallel_map(par, plan.chunks(), |c| {
            let mut driver = BlockDriver::new(&cfg, c.start);
            driver.advance(signal, 0, c.end, |k| schedule[k]).map(|()| {
                driver.stitch();
                driver.runs
            })
        });
        let _stitch = obs::span!("par.stitch");
        let mut runs = StitchedRuns::default();
        let mut fixups = 0u64;
        for part in parts {
            let part = part?;
            fixups += runs.stitch(part.below_threshold, part.below_edge, cfg.merge_gap_samples);
        }
        obs::gauge_set!("par.merge_fixups", fixups as f64);
        Ok(runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmprofConfig;

    const FS: f64 = 40e6;
    const CLK: f64 = 1.0e9;

    fn emprof() -> Emprof {
        Emprof::new(EmprofConfig::for_rates(FS, CLK))
    }

    /// Busy signal with ±10% drift and dips of the given (start, width).
    fn signal(len: usize, dips: &[(usize, usize)]) -> Vec<f64> {
        let mut s: Vec<f64> = (0..len)
            .map(|i| 5.0 * (1.0 + 0.1 * (i as f64 * 7e-5).sin()))
            .collect();
        for &(start, width) in dips {
            for v in s.iter_mut().skip(start).take(width) {
                *v *= 0.15;
            }
        }
        s
    }

    #[test]
    fn parallel_profile_matches_batch_bit_for_bit() {
        let mag = signal(
            60_000,
            &[(5_000, 12), (9_000, 8), (9_030, 8), (20_000, 100), (55_000, 40)],
        );
        let e = emprof();
        let batch = e.profile_magnitude(&mag, FS, CLK);
        for threads in [2, 3, 5, 8] {
            let par = e.profile_magnitude_par(&mag, FS, CLK, Parallelism::new(threads));
            assert_eq!(batch, par, "threads {threads}");
        }
    }

    #[test]
    fn dip_straddling_a_seam_is_rejoined() {
        // With 2 threads over 40_000 samples the seam is at 20_000; plant
        // a dip right across it (flat busy level so it is the only event).
        let mut mag = vec![5.0; 40_000];
        for v in mag.iter_mut().skip(19_990).take(20) {
            *v = 0.8;
        }
        let e = emprof();
        let batch = e.profile_magnitude(&mag, FS, CLK);
        assert_eq!(batch.events().len(), 1);
        let par = e.profile_magnitude_par(&mag, FS, CLK, Parallelism::new(2));
        assert_eq!(batch, par, "seam-straddling dip must not split");
    }

    #[test]
    fn sequential_parallelism_is_the_batch_path() {
        let mag = signal(30_000, &[(12_000, 12)]);
        let e = emprof();
        let batch = e.profile_magnitude(&mag, FS, CLK);
        let par = e.profile_magnitude_par(&mag, FS, CLK, Parallelism::sequential());
        assert_eq!(batch, par);
    }

    #[test]
    fn degenerate_inputs_match() {
        let e = emprof();
        for mag in [vec![], vec![5.0], vec![0.1; 3]] {
            let batch = e.profile_magnitude(&mag, FS, CLK);
            let par = e.profile_magnitude_par(&mag, FS, CLK, Parallelism::new(4));
            assert_eq!(batch, par, "len {}", mag.len());
        }
    }

    #[test]
    fn non_finite_input_matches_batch() {
        let mut mag = signal(40_000, &[(9_000, 12), (25_000, 30)]);
        for i in (0..mag.len()).step_by(1_371) {
            mag[i] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3];
        }
        let e = emprof();
        let batch = e.profile_magnitude(&mag, FS, CLK);
        for threads in [2, 5] {
            let par = e.profile_magnitude_par(&mag, FS, CLK, Parallelism::new(threads));
            assert_eq!(batch, par, "threads {threads}");
        }
    }

    #[test]
    fn many_more_threads_than_structure_still_match() {
        // Chunks much smaller than the normalization window: every chunk's
        // extrema context crosses multiple seams.
        let mag = signal(4_096, &[(1_000, 12), (2_040, 30), (3_900, 60)]);
        let e = emprof();
        let batch = e.profile_magnitude(&mag, FS, CLK);
        let par = e.profile_magnitude_par(&mag, FS, CLK, Parallelism::new(16));
        assert_eq!(batch, par);
    }
}
