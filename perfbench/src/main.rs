//! Layered end-to-end benchmark for EMPROF.
//!
//! ```text
//! emprof-perfbench --workload <offline_profile|fleet_ingest|journal_query>
//!                  --seed <n> --seconds <s> --trace <0|1>
//!                  --work-dir <dir> [--spans-out <file>] [--perturb <layer>]
//! ```
//!
//! Every run sets up all three tiers and then runs three legs in a fixed
//! order: offline profiling, routed fleet ingest, and journal queries.
//! The workload names the leg that gets 60% of `--seconds`; the other
//! two get 20% each, so every end-to-end metric is measured on every
//! workload while each workload loads one tier. With `--trace 0` the run
//! prints the end-to-end metrics; with `--trace 1` it records spans
//! around each layer call, runs the layer probes, and prints the
//! per-layer metrics. The last stdout line is the result object; the
//! line before it is the provenance object.

mod ingest;
mod offline;
mod probes;
mod query;
mod report;
mod rng;
mod schedule;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Host, Metric, Tally};
use rng::Rng;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of `--seconds` the workload's own leg gets; the other two legs
/// split the rest.
const PRIMARY_SHARE: f64 = 0.6;
/// Layers `--perturb` can slow down: the one `run.py --self-check`
/// uses.
const PERTURBABLE: [&str; 1] = ["store.query"];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Offline,
    Ingest,
    Query,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "offline_profile" => Some(Workload::Offline),
            "fleet_ingest" => Some(Workload::Ingest),
            "journal_query" => Some(Workload::Query),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    spans_out: Option<PathBuf>,
    perturb: Option<&'static str>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let workload_name = get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(&workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name:?}"))?;
    let seed = get("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .ok_or("--seconds is required")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(x) => return Err(format!("--trace must be 0 or 1, got {x:?}")),
    };
    let work_dir = PathBuf::from(get("--work-dir").ok_or("--work-dir is required")?);
    let perturb = match get("--perturb") {
        None => None,
        Some(p) => Some(
            *PERTURBABLE
                .iter()
                .find(|l| **l == p)
                .ok_or_else(|| format!("--perturb {p:?}: not one of {PERTURBABLE:?}"))?,
        ),
    };
    Ok(Args {
        workload,
        workload_name,
        seed,
        seconds,
        trace,
        work_dir,
        spans_out: get("--spans-out").map(PathBuf::from),
        perturb,
    })
}

fn median(xs: &[f64]) -> f64 {
    stats::quantile(xs, 0.5)
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: Vec<f64>) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// A tail percentile that the picker allows for this many samples; a
/// run with too few samples for its declared percentile is not valid.
fn tail(xs: &[f64], p: f64, what: &str, tally: &mut Tally) -> f64 {
    if !stats::supports(xs.len(), p) {
        tally.wrong(format!(
            "{what}: {} samples leave fewer than {} beyond p{}",
            xs.len(),
            stats::MIN_BEYOND,
            p * 100.0
        ));
    }
    if xs.is_empty() {
        f64::NAN
    } else {
        stats::quantile(xs, p)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> std::io::Result<()> {
    let epoch = Instant::now();
    let host = Host::probe();
    let rng = Rng::new(args.seed);
    let _ = std::fs::remove_dir_all(&args.work_dir);
    std::fs::create_dir_all(&args.work_dir)?;

    // Set-up, several times: the last set-up is the one measured.
    let mut setup_s = Vec::new();
    let mut recover_s = Vec::new();
    let mut fixture: Option<(ingest::Fleet, query::Corpus)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((fleet, corpus)) = fixture.take() {
            fleet.shutdown();
            corpus.server.shutdown();
        }
        let t0 = Instant::now();
        let fleet = ingest::Fleet::start(&rng, &args.work_dir.join(format!("fleet-{rep}")))?;
        let corpus = query::Corpus::build(&rng, &args.work_dir.join(format!("corpus-{rep}")))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        recover_s.push(corpus.recover_s);
        fixture = Some((fleet, corpus));
    }
    let (fleet, corpus) = fixture.expect("at least one set-up");

    let share = |w: Workload| {
        let s = if w == args.workload {
            PRIMARY_SHARE
        } else {
            (1.0 - PRIMARY_SHARE) / 2.0
        };
        Duration::from_secs_f64(args.seconds * s)
    };
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(args.trace, epoch, 0).with_perturb(args.perturb);

    let off = offline::run(
        &rng.fork(1),
        share(Workload::Offline),
        &mut tracer,
        &mut tally,
    );
    let (ing, ingest_spans) = ingest::run(
        &fleet,
        fleet.router.local_addr(),
        share(Workload::Ingest),
        epoch,
        args.trace,
        args.perturb,
        &mut tally,
    );
    let q = query::run(
        &corpus,
        &rng.fork(3),
        share(Workload::Query),
        &mut tracer,
        &mut tally,
    );
    let peak_rss = report::peak_rss_mb();

    let metrics = if args.trace {
        let mut spans = tracer.into_spans();
        spans.extend(ingest_spans);
        traced_metrics(
            args, &rng, &fleet, &corpus, &off, &ing, &q, &spans, &recover_s, &mut tally,
        )?
    } else {
        end_to_end_metrics(&off, &ing, &q, setup_s.clone(), peak_rss, &mut tally)
    };
    fleet.shutdown();
    corpus.server.shutdown();
    let _ = std::fs::remove_dir_all(&args.work_dir);

    println!(
        "{}",
        report::provenance_json(
            &host,
            &args.workload_name,
            args.seed,
            args.seconds,
            args.trace,
            SETUP_REPS,
            &metrics
        )
    );
    println!(
        "{}",
        report::result_json(tally.wrong == 0, &tally, &metrics)
    );
    Ok(())
}

fn end_to_end_metrics(
    off: &offline::OfflineOut,
    ing: &ingest::IngestOut,
    q: &query::QueryOut,
    setup_s: Vec<f64>,
    peak_rss: f64,
    tally: &mut Tally,
) -> Vec<Metric> {
    let round_msamples = (ingest::SESSIONS * ingest::CAPTURE) as f64 / 1e6;
    let cpu: Vec<f64> = ing
        .round_cpu_s
        .iter()
        .map(|s| s * 1e3 / round_msamples)
        .collect();
    let mut m = vec![
        metric("setup_s", "s", median(&setup_s), setup_s),
        metric("peak_rss_mb", "MB", peak_rss, vec![]),
        metric("detect_f1", "ratio", off.matches.f1(), vec![]),
        metric("ingest_cpu_ms_per_msample", "ms/Msample", median(&cpu), cpu),
        metric(
            "query_cold_p50_ms",
            "ms",
            tail(&q.cold_ms, 0.5, "cold queries", tally),
            q.cold_ms.clone(),
        ),
        metric(
            "query_warm_p50_ms",
            "ms",
            tail(&q.warm_ms, 0.5, "warm queries", tally),
            q.warm_ms.clone(),
        ),
    ];
    // Last, so every operation above is counted.
    let ok = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    m.insert(2, metric("op_ok_frac", "ratio", ok, vec![]));
    m
}

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    args: &Args,
    rng: &Rng,
    fleet: &ingest::Fleet,
    corpus: &query::Corpus,
    off: &offline::OfflineOut,
    ing: &ingest::IngestOut,
    q: &query::QueryOut,
    spans: &[trace::Span],
    recover_s: &[f64],
    tally: &mut Tally,
) -> std::io::Result<Vec<Metric>> {
    // Direct sessions, same shape as the routed leg, for the router hop:
    // three captures per session, 1500 flushes, so p99 has 15 beyond it.
    let epoch = Instant::now();
    let (direct, _) = ingest::run(
        fleet,
        fleet.server.local_addr(),
        Duration::from_secs_f64(3.0 * ingest::CAPTURE as f64 / ingest::SAMPLES_PER_S),
        epoch,
        false,
        None,
        tally,
    );
    let capture = &fleet.captures[0].0;
    let det = probes::detector(capture);
    let (enc_ns, dec_ns) = probes::codec(capture, &q.replies);
    let store = probes::store(&args.work_dir.join("probe"), capture, &det.per_frame_events);
    let warm_in_process = query::in_process_warm(corpus, &rng.fork(3), query::MIN_PER_CLASS);

    let by_name = trace::self_seconds_by_name(spans);
    let self_s = |n: &str| by_name.get(n).copied().unwrap_or(f64::NAN);
    let dur_s = |n: &str| -> Vec<f64> {
        trace::durations_ms(spans, n)
            .iter()
            .map(|ms| ms / 1e3)
            .collect()
    };
    let cycles: u64 = off.cycles.iter().sum();
    let samples: u64 = off.samples.iter().sum();
    let overhead = median(&warm_in_process.traced_extra_ms) / median(&warm_in_process.untraced_ms);
    let (sim_s, cap_s, mag_s) = (
        dur_s("sim.run"),
        dur_s("emsim.capture"),
        dur_s("emsim.magnitude"),
    );
    let events: usize = fleet.captures.iter().map(|c| c.1.len()).sum();
    // Median over quarter-second windows: a burst of load from outside
    // the process spoils some of them, not the whole leg.
    let event_p90s: Vec<f64> = ing
        .event_latency_ms
        .iter()
        .map(|window| tail(window, 0.9, "event latency in a window", tally))
        .collect();
    let latencies = ing.event_latency_ms.concat();
    let hits = q.warm_hits as f64 / (q.warm_hits + q.warm_misses).max(1) as f64;

    if let Some(path) = &args.spans_out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, trace::to_jsonl(spans))?;
    }
    let rates = off.rotation_rates();
    Ok(vec![
        metric(
            "latency.event_p50_ms",
            "ms",
            tail(&latencies, 0.5, "event latency", tally),
            latencies,
        ),
        metric(
            "latency.event_p90_ms",
            "ms",
            median(&event_p90s),
            event_p90s,
        ),
        metric(
            "latency.query_cold_p90_ms",
            "ms",
            tail(&q.cold_ms, 0.9, "cold queries", tally),
            vec![],
        ),
        metric(
            "latency.query_warm_p90_ms",
            "ms",
            tail(&q.warm_ms, 0.9, "warm queries", tally),
            vec![],
        ),
        metric("offline.mcycles_per_s", "Mcycles/s", median(&rates), rates),
        metric(
            "sim.mcycles_per_s",
            "Mcycles/s",
            cycles as f64 / self_s("sim.run") / 1e6,
            vec![],
        ),
        metric("sim.run_s", "s", median(&sim_s), sim_s),
        metric("sim.cycles", "count", off.rotation_cycles as f64, vec![]),
        metric(
            "sim.llc_misses",
            "count",
            off.rotation_llc_misses as f64,
            vec![],
        ),
        metric("emsim.capture_s", "s", median(&cap_s), cap_s),
        metric(
            "emsim.msamples_per_s",
            "Msamples/s",
            samples as f64 / self_s("emsim.capture") / 1e6,
            vec![],
        ),
        metric("emsim.magnitude_s", "s", median(&mag_s), mag_s),
        metric(
            "core.batch_msps",
            "Msamples/s",
            samples as f64 / self_s("core.batch") / 1e6,
            vec![],
        ),
        metric("core.stream_msps", "Msamples/s", det.stream_msps, vec![]),
        metric(
            "core.stream_batch_ratio",
            "ratio",
            det.stream_msps / det.batch_msps,
            vec![],
        ),
        metric("core.events", "count", events as f64, vec![]),
        metric("proto.encode_ns_per_frame", "ns", enc_ns, vec![]),
        metric("proto.decode_ns_per_frame", "ns", dec_ns, vec![]),
        metric(
            "serve.flush_rtt_p50_ms",
            "ms",
            median(&direct.flush_rtt_ms),
            direct.flush_rtt_ms.clone(),
        ),
        metric(
            "serve.flush_rtt_p99_ms",
            "ms",
            tail(&direct.flush_rtt_ms, 0.99, "direct flushes", tally),
            vec![],
        ),
        metric(
            "serve.send_blocked_ms",
            "ms",
            ing.send_ms.iter().sum::<f64>() / ing.send_ms.len().max(1) as f64,
            ing.send_ms.clone(),
        ),
        metric(
            "router.hop_ms",
            "ms",
            median(&ing.flush_rtt_ms) - median(&direct.flush_rtt_ms),
            vec![],
        ),
        metric(
            "store.append_samples_us",
            "us",
            store.append_samples_us,
            vec![],
        ),
        metric(
            "store.append_samples_sync_us",
            "us",
            store.append_samples_sync_us,
            vec![],
        ),
        metric(
            "store.append_events_us",
            "us",
            store.append_events_us,
            vec![],
        ),
        metric(
            "store.bytes_written",
            "bytes",
            store.bytes_written as f64,
            vec![],
        ),
        metric(
            "store.query_cold_ms",
            "ms",
            median(&q.cold_ms),
            q.cold_ms.clone(),
        ),
        metric(
            "store.query_warm_ms",
            "ms",
            median(&warm_in_process.untraced_ms),
            warm_in_process.untraced_ms.clone(),
        ),
        metric(
            "store.segments_scanned",
            "count",
            q.cold_scanned as f64,
            vec![],
        ),
        metric(
            "store.segments_pruned",
            "count",
            q.cold_pruned as f64,
            vec![],
        ),
        metric("store.cache_hit_ratio", "ratio", hits, vec![]),
        metric(
            "store.recover_s",
            "s",
            median(recover_s),
            recover_s.to_vec(),
        ),
        metric(
            "gen.lag_p99_ms",
            "ms",
            tail(&ing.gen_lag_ms, 0.99, "generator lag", tally),
            vec![],
        ),
        metric("trace.overhead_frac", "ratio", overhead, vec![]),
        metric(
            "trace.unaccounted_frac",
            "ratio",
            trace::unaccounted_frac(spans),
            vec![],
        ),
    ])
}
