//! The one detector core (DESIGN.md §13): the resumable fused kernel
//! driven under a calibration-block schedule, and the stitcher that
//! turns the runs of many kernel calls back into the runs of one pass.
//!
//! Every entry point is a thin driver over this. Batch advances one
//! [`BlockDriver`] over the whole signal, the parallel detector one per
//! chunk (stitched in chunk order), the streaming detector one per
//! stream, a frame at a time. Static mode is the constant schedule: a
//! single block spanning the stream, under the base parameters.

use std::collections::VecDeque;

use emprof_signal::fused::{FusedState, LevelRuns};

use crate::calib::BlockParams;
use crate::config::EmprofConfig;

/// Below-level runs in global coordinates, stitched across kernel calls
/// into the run lists one pass over the whole signal would give:
/// below-threshold runs under the batch gap-merge rule, below-edge runs
/// rejoined where a call boundary split them.
#[derive(Debug, Clone, Default)]
pub(crate) struct StitchedRuns {
    /// Gap-merged below-threshold runs: the dips before refinement.
    pub(crate) below_threshold: VecDeque<(usize, usize)>,
    /// Maximal below-edge runs: the context refinement widens dips into.
    pub(crate) below_edge: VecDeque<(usize, usize)>,
}

impl StitchedRuns {
    /// Appends runs that follow every run held, returning how many
    /// below-threshold runs arrived split at a call boundary.
    ///
    /// Within one kernel call runs never abut (a run only ends on a
    /// sample at or above its level), so a gap-0 pair is one run split at
    /// a boundary. The merge rule (`gap <= merge_gap`) always rejoins it,
    /// and greedy left-to-right merging does not see such splits, so the
    /// merged list is the batch one. Below-edge runs rejoin at gap 0 only.
    pub(crate) fn stitch(
        &mut self,
        below_threshold: impl IntoIterator<Item = (usize, usize)>,
        below_edge: impl IntoIterator<Item = (usize, usize)>,
        merge_gap: usize,
    ) -> u64 {
        let rejoined = append(&mut self.below_threshold, below_threshold, merge_gap);
        append(&mut self.below_edge, below_edge, 0);
        rejoined
    }
}

fn append(
    into: &mut VecDeque<(usize, usize)>,
    runs: impl IntoIterator<Item = (usize, usize)>,
    max_gap: usize,
) -> u64 {
    let mut split = 0;
    for (s, e) in runs {
        match into.back_mut() {
            Some(last) if s - last.1 <= max_gap => {
                split += u64::from(s == last.1);
                last.1 = e;
            }
            _ => into.push_back((s, e)),
        }
    }
    split
}

/// The resumable fused kernel under a block schedule: positions in block
/// `k` (`[k * block, (k + 1) * block)`) are normalized under the
/// schedule's entry `k`, and each block boundary a call crosses splits
/// it, so the kernel re-primes only where the window changes.
#[derive(Debug, Clone)]
pub(crate) struct BlockDriver {
    state: FusedState,
    /// Calibration block length; `usize::MAX` in static mode.
    block: usize,
    merge_gap: usize,
    /// Runs found since the last stitch (reused across calls).
    found: LevelRuns,
    /// Everything stitched so far.
    pub(crate) runs: StitchedRuns,
}

impl BlockDriver {
    /// A driver whose first output position is `start`.
    pub(crate) fn new(config: &EmprofConfig, start: usize) -> Self {
        BlockDriver {
            state: FusedState::new(start),
            block: config.calib.block(config.norm_window_samples),
            merge_gap: config.merge_gap_samples,
            found: LevelRuns::default(),
            runs: StitchedRuns::default(),
        }
    }

    /// The calibration block length (`usize::MAX` in static mode).
    pub(crate) fn block(&self) -> usize {
        self.block
    }

    /// The next position to normalize.
    pub(crate) fn position(&self) -> usize {
        self.state.position()
    }

    /// Normalizes positions up to `end`, block `k` under `schedule(k)`.
    /// `signal` holds samples `[base, base + signal.len())`; see
    /// [`FusedState::advance`] for what it must hold. The runs wait for
    /// [`stitch`](BlockDriver::stitch).
    ///
    /// # Errors
    ///
    /// `Err(i)` when sample `i` is the first non-finite sample read; the
    /// driver is then unusable.
    pub(crate) fn advance(
        &mut self,
        signal: &[f64],
        base: usize,
        end: usize,
        schedule: impl Fn(usize) -> BlockParams,
    ) -> Result<(), usize> {
        while self.state.position() < end {
            let k = self.state.position() / self.block;
            let stop = end.min((k + 1).saturating_mul(self.block));
            let params = schedule(k).kernel();
            self.state
                .advance(signal, base, stop, &params, &mut self.found, None)?;
        }
        Ok(())
    }

    /// Moves the runs found since the last stitch into [`runs`].
    ///
    /// [`runs`]: BlockDriver::runs
    pub(crate) fn stitch(&mut self) {
        self.runs.stitch(
            self.found.below_threshold.drain(..),
            self.found.below_edge.drain(..),
            self.merge_gap,
        );
    }
}
