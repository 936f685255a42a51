//! Metric collection, host provenance, and the JSON result lines.

use std::fmt::Write as _;

use crate::stats;

/// One reported metric and the samples it was computed from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Per-operation (or per-repetition) samples behind `value`; their
    /// quartiles go into the provenance line.
    pub samples: Vec<f64>,
}

/// Operations attempted and failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Operations with no answer or an answer that differs from its
    /// reference, as opposed to a correct but late one.
    pub wrong: u64,
}

impl Tally {
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a wrong operation and reports it on stderr.
    pub fn wrong(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
        eprintln!("perfbench: WRONG {what}");
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// Host facts every result carries.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
}

impl Host {
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Whole-process CPU time (user + system, every thread) in seconds,
/// from `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// CPU time of the calling thread in seconds, from the scheduler's
/// nanosecond run-time counter. Unlike wall time it leaves out time the
/// thread waited, including time a hypervisor took the core away.
pub fn thread_cpu_s() -> f64 {
    let stat =
        std::fs::read_to_string("/proc/thread-self/schedstat").expect("read thread schedstat");
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with run time in ns");
    ns as f64 * 1e-9
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The provenance line: host, seed, run length, and per metric the
/// sample count with its median and quartiles.
pub fn provenance_json(
    host: &Host,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_reps: usize,
    metrics: &[Metric],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"provenance\":{{\"nproc\":{},\"cpu_model\":\"{}\",\"workload\":\"{}\",\"seed\":{seed},\
         \"seconds\":{},\"trace\":{trace},\"setup_repetitions\":{setup_reps},\"metrics\":{{",
        host.nproc,
        esc(&host.cpu_model),
        esc(workload),
        num(seconds)
    );
    for (i, m) in metrics.iter().enumerate() {
        let (q1, med, q3) = if m.samples.is_empty() {
            (m.value, m.value, m.value)
        } else {
            stats::quartiles(&m.samples)
        };
        let _ = write!(
            out,
            "{}\"{}\":{{\"n\":{},\"q1\":{},\"median\":{},\"q3\":{}}}",
            if i == 0 { "" } else { "," },
            m.name,
            m.samples.len().max(1),
            num(q1),
            num(med),
            num(q3)
        );
    }
    out.push_str("}}}");
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            m.name,
            num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_required_keys() {
        let mut t = Tally::default();
        t.op(true);
        t.op(false);
        let m = [Metric {
            name: "a.b",
            unit: "ms",
            value: 1.25,
            samples: vec![1.0, 1.25, 2.0],
        }];
        assert_eq!(
            result_json(false, &t, &m),
            "{\"correct\":false,\"attempted\":2,\"failed\":1,\"metrics\":{\"a.b\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        let p = provenance_json(&Host::probe(), "w", 3, 10.0, false, 3, &m);
        assert!(p.contains("\"a.b\":{\"n\":3,\"q1\":1.125,\"median\":1.25,\"q3\":1.625}"));
    }

    #[test]
    fn proc_readers_return_positive_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
        let t0 = thread_cpu_s();
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        assert!(thread_cpu_s() - t0 > 0.01);
    }
}
