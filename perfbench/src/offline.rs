//! `offline_profile` leg: the paper's Table III/IV workflow, one
//! instance at a time on one thread. Each instance is a seeded SPEC-like
//! workload on one of the three evaluation devices, run through
//! sim -> `Receiver::capture` -> magnitude -> `Emprof::profile_magnitude`
//! and scored against the simulator's ground truth.

use std::time::{Duration, Instant};

use emprof_core::accuracy::match_events;
use emprof_core::{Emprof, EmprofConfig, Parallelism, StreamingEmprof};
use emprof_emsim::{Receiver, ReceiverConfig};
use emprof_sim::{DeviceModel, Simulator};
use emprof_workloads::spec::WorkloadSpec;

use crate::report::{thread_cpu_s, Tally};
use crate::rng::Rng;
use crate::trace::Tracer;

/// Instance size as a share of the presets' 40M instructions; about
/// 0.15 s of simulation plus capture per instance on a 2-vCPU Xeon.
const SCALE: f64 = 0.02;
/// Capture bandwidth and sample rate of the paper's bench setup.
const BANDWIDTH_HZ: f64 = 40e6;
/// Slack when matching detected stalls to ground truth, in cycles.
const MATCH_TOLERANCE_CYCLES: u64 = 50;
/// A rotation whose pooled detection F1 falls below this counts as one
/// failed operation. The floor catches a detector that stops working;
/// `detect_f1` tracks smaller drift. It is pooled because single short
/// captures with few stalls score as low as 0.69 at this commit.
pub const F1_FLOOR: f64 = 0.9;

/// What the leg measured.
#[derive(Debug, Default)]
pub struct OfflineOut {
    /// Per instance: simulated cycles and the profiling thread's CPU
    /// seconds end to end.
    pub cycles: Vec<u64>,
    pub cpu_s: Vec<f64>,
    /// Per instance: capture samples.
    pub samples: Vec<u64>,
    /// Detection matching summed over all instances.
    pub matches: Matches,
    /// Instances per rotation.
    pub rotation_len: usize,
    /// Simulated cycles and LLC misses of the first full rotation: exact
    /// for a given seed however long the leg runs.
    pub rotation_cycles: u64,
    pub rotation_llc_misses: u64,
}

impl OfflineOut {
    /// Simulated Mcycles per CPU second of each rotation.
    pub fn rotation_rates(&self) -> Vec<f64> {
        self.cycles
            .chunks(self.rotation_len)
            .zip(self.cpu_s.chunks(self.rotation_len))
            .map(|(c, w)| c.iter().sum::<u64>() as f64 / w.iter().sum::<f64>() / 1e6)
            .collect()
    }
}

/// Ground-truth stalls matched and missed, and detected events that
/// match none, out of `detected`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Matches {
    pub matched: u64,
    pub missed: u64,
    pub spurious: u64,
    pub detected: u64,
}

impl Matches {
    fn add(&mut self, other: &Matches) {
        self.matched += other.matched;
        self.missed += other.missed;
        self.spurious += other.spurious;
        self.detected += other.detected;
    }

    /// F1 of recall and precision over the pooled counts.
    pub fn f1(&self) -> f64 {
        let recall = self.matched as f64 / (self.matched + self.missed).max(1) as f64;
        let precision = 1.0 - self.spurious as f64 / self.detected.max(1) as f64;
        if recall + precision == 0.0 {
            0.0
        } else {
            2.0 * recall * precision / (recall + precision)
        }
    }
}

/// Every workload on every device: one rotation of the leg.
fn pairs() -> Vec<(WorkloadSpec, DeviceModel)> {
    let mut out = Vec::new();
    for device in DeviceModel::evaluation_devices() {
        for spec in WorkloadSpec::all_spec2000() {
            out.push((spec.scaled(SCALE), device.clone()));
        }
    }
    out
}

/// Runs whole rotations until `budget` has passed. Each rotation visits
/// every (workload, device) pair once, in a seeded order with seeded
/// simulator and receiver noise; stopping only between rotations keeps
/// the workload mix, and so the cycles-per-second figure, the same in
/// every run.
pub fn run(rng: &Rng, budget: Duration, tracer: &mut Tracer, tally: &mut Tally) -> OfflineOut {
    let base = pairs();
    let receiver = Receiver::new(ReceiverConfig::paper_setup(BANDWIDTH_HZ))
        .with_parallelism(Parallelism::sequential());
    let mut out = OfflineOut {
        rotation_len: base.len(),
        ..OfflineOut::default()
    };
    let start = Instant::now();
    let mut order: Vec<usize> = (0..base.len()).collect();
    let mut rotation = Matches::default();
    let mut k = 0usize;
    loop {
        if k.is_multiple_of(base.len()) {
            if k > 0 {
                let score = std::mem::take(&mut rotation).f1();
                if score < F1_FLOOR {
                    tally.wrong(format!(
                        "offline rotation {}: F1 {score:.3} below the {F1_FLOOR} floor",
                        k / base.len()
                    ));
                } else {
                    tally.op(true);
                }
                if start.elapsed() >= budget {
                    break;
                }
            }
            rng.fork((k / base.len()) as u64).shuffle(&mut order);
        }
        let (spec, device) = &base[order[k % base.len()]];
        let seed = rng.fork(0xF00D).fork(k as u64).next_u64();
        let op = k as u64;

        let cpu0 = thread_cpu_s();
        let root = tracer.begin("offline.instance", op);
        let sim = tracer.span("sim.run", op, || {
            Simulator::new(device.clone())
                .with_seed(seed)
                .run(spec.clone().with_seed(seed).source())
        });
        let capture = tracer.span("emsim.capture", op, || {
            receiver.capture(&sim.power, seed ^ 0xE1)
        });
        let magnitude = tracer.span("emsim.magnitude", op, || capture.magnitude());
        let fs = capture.sample_rate_hz();
        let config = EmprofConfig::for_rates(fs, device.clock_hz);
        let profile = tracer.span("core.batch", op, || {
            Emprof::new(config).profile_magnitude(&magnitude, fs, device.clock_hz)
        });
        let m = tracer.span("score", op, || {
            match_events(&profile, &sim.ground_truth, MATCH_TOLERANCE_CYCLES)
        });
        tracer.end(root);
        let cpu = thread_cpu_s() - cpu0;

        // Checks, outside the timed instance.
        let mut streaming = StreamingEmprof::new(config, fs, device.clock_hz);
        streaming.extend_from_slice(&magnitude);
        if streaming.finish().events() != profile.events() {
            tally.wrong(format!(
                "offline {} on {}: streaming events differ from batch",
                spec.name, device.name
            ));
        } else {
            tally.op(true);
        }
        let found = Matches {
            matched: m.matched as u64,
            missed: m.missed as u64,
            spurious: m.spurious as u64,
            detected: profile.events().len() as u64,
        };
        rotation.add(&found);
        out.matches.add(&found);
        out.cycles.push(sim.stats.cycles);
        out.cpu_s.push(cpu);
        out.samples.push(magnitude.len() as u64);
        if k < base.len() {
            out.rotation_cycles += sim.stats.cycles;
            out.rotation_llc_misses += sim.stats.llc_misses;
        }
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_of_counts() {
        let f1 = |matched, missed, spurious, detected| {
            Matches {
                matched,
                missed,
                spurious,
                detected,
            }
            .f1()
        };
        assert_eq!(f1(10, 0, 0, 10), 1.0);
        assert_eq!(f1(0, 10, 0, 0), 0.0);
        // recall 0.5, precision 0.5
        assert!((f1(5, 5, 5, 10) - 0.5).abs() < 1e-12);
    }
}
