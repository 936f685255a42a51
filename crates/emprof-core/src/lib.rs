//! EMPROF: memory profiling via EM emanations.
//!
//! This crate is the reproduction's implementation of the paper's primary
//! contribution (Section IV): given the magnitude of a side-channel signal
//! captured around a processor's clock frequency, EMPROF
//!
//! 1. **normalizes** the signal to `[0, 1]` with a moving minimum/maximum,
//!    canceling probe-position gain and supply drift,
//! 2. **detects dips** whose duration exceeds a threshold chosen between
//!    typical on-chip latencies and the LLC miss latency,
//! 3. reports each dip as a [`StallEvent`] — an LLC-miss-induced processor
//!    stall with a position in the timeline and a measured latency in
//!    cycles — and
//! 4. classifies the microsecond-long stalls caused by DRAM-refresh
//!    collisions separately ([`StallKind::RefreshCollision`], Fig. 5).
//!
//! The same code profiles either a synthesized EM capture
//! (`emprof_emsim::CapturedSignal` magnitudes) or the simulator's power
//! trace averaged over 20-cycle intervals — the paper's two validation
//! paths. [`accuracy`] scores results against simulator ground truth the
//! way Tables II and III do.
//!
//! EMPROF needs no training and no knowledge of the profiled program —
//! the detector below is entirely signal-driven.
//!
//! # Example
//!
//! ```
//! use emprof_core::{Emprof, EmprofConfig};
//!
//! // A magnitude signal at 40 MS/s from a 1 GHz core: busy at ~5.0 with
//! // one 12-sample (300-cycle) stall dip.
//! let mut mag = vec![5.0; 4000];
//! for m in mag.iter_mut().skip(2000).take(12) { *m = 1.0; }
//!
//! let emprof = Emprof::new(EmprofConfig::for_rates(40e6, 1.0e9));
//! let profile = emprof.profile_magnitude(&mag, 40e6, 1.0e9);
//! assert_eq!(profile.miss_count(), 1);
//! let latency = profile.events()[0].duration_cycles;
//! assert!((200.0..450.0).contains(&latency));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
mod calib;
mod config;
mod detect;
mod driver;
mod fusion;
mod histogram;
mod parallel;
mod profile;
pub mod report;
pub mod section;
mod streaming;

pub use calib::{BlockParams, CalibConfig, Calibrator};
pub use config::EmprofConfig;
pub use detect::Emprof;
pub use fusion::{FusedDetector, FusionConfig, FusionReport};
pub use histogram::Histogram;
pub use profile::{Confidence, Profile, StallEvent, StallKind};
pub use streaming::{StreamingEmprof, StreamingStats};

pub use emprof_par::Parallelism;
