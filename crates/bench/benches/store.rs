//! Journal read path: checksum, recovery scan and query scan.
//!
//! One session journal holding a single ~1 MiB segment, written the way
//! a journaled server writes it (8192-sample SAMPLES batches, each
//! followed by the events finalized with it). Rows:
//!
//! - `crc32` — the CRC-32 kernel over the segment's bytes;
//! - `scan_segment` — the recovery scan, which decodes every record,
//!   SAMPLES included;
//! - `query_scan` — a cold full-range `query_journals` over the same
//!   session, which validates SAMPLES records without decoding them;
//! - `query_pruned` — a cold query whose window holds only the last
//!   batch's events, over the same kind of session written into 16
//!   sealed 1 MiB segments plus an open tail. Every sealed segment but
//!   the last is pruned by its footer, yet still walked and validated,
//!   so this row tracks what that validation costs.

use std::path::PathBuf;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use emprof_core::{Confidence, EmprofConfig, StallEvent, StallKind};
use emprof_store::segment::{scan_segment, segment_file_name};
use emprof_store::{crc32, query_journals, JournalConfig, QuerySpec, SessionJournal, SessionMeta};

const BATCH: usize = 8192;
const TARGET_BYTES: u64 = 1 << 20;

/// Writes `target_bytes` of session journal in `segment_bytes`
/// segments under a fresh root. Returns the root, the first segment and
/// the start sample of the last event written.
fn write_corpus(tag: &str, target_bytes: u64, segment_bytes: u64) -> (PathBuf, PathBuf, u64) {
    let root = std::env::temp_dir().join(format!(
        "emprof-bench-store-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("session-1");
    let meta = SessionMeta {
        session_id: 1,
        resume_token: 1,
        sample_rate_hz: 40e6,
        clock_hz: 1.0e9,
        config: EmprofConfig::for_rates(40e6, 1.0e9),
        device: "bench".into(),
    };
    let cfg = JournalConfig {
        segment_bytes,
        ..JournalConfig::default()
    };
    let mut journal = SessionJournal::create(&dir, meta, cfg).unwrap();
    let mut seq = 0u64;
    let mut last_start = 0;
    while journal.stats().bytes < target_bytes {
        seq += 1;
        let base = (seq as usize - 1) * BATCH;
        let samples: Vec<f64> = (0..BATCH).map(|i| 1.0 + ((base + i) as f64 * 1e-3).sin()).collect();
        journal.append_samples(seq, &samples).unwrap();
        let events: Vec<StallEvent> = (0..4)
            .map(|k| StallEvent {
                start_sample: base + k * 2000,
                end_sample: base + k * 2000 + 40,
                duration_cycles: 1000.0,
                kind: StallKind::Normal,
                confidence: Confidence::High,
            })
            .collect();
        last_start = events[3].start_sample as u64;
        journal.append_events(4 * seq - 3, &events).unwrap();
    }
    journal.sync().unwrap();
    (root, dir.join(segment_file_name(0)), last_start)
}

fn bench_store(c: &mut Criterion) {
    let (root, segment, _) = write_corpus("one", TARGET_BYTES, 2 * TARGET_BYTES);
    let bytes = std::fs::read(&segment).unwrap();
    let spec = QuerySpec::all();

    let mut g = c.benchmark_group("store_read");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("crc32", |b| b.iter(|| crc32(black_box(&bytes))));
    g.bench_function("scan_segment", |b| {
        b.iter(|| scan_segment(black_box(&segment)).unwrap().unwrap())
    });
    g.bench_function("query_scan", |b| {
        b.iter(|| query_journals(black_box(&root), &spec, None).unwrap())
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&root);

    let (root, _, last_start) = write_corpus("many", 17 * TARGET_BYTES, TARGET_BYTES);
    let narrow = QuerySpec {
        t0: last_start,
        ..QuerySpec::all()
    };
    let mut g = c.benchmark_group("store_prune");
    g.throughput(Throughput::Bytes(17 * TARGET_BYTES));
    g.bench_function("query_pruned", |b| {
        b.iter(|| query_journals(black_box(&root), &narrow, None).unwrap())
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&root);
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
