//! query-equals-replay over journals that hold SAMPLES records.
//!
//! `prop_query` covers events-only journals. Here every session is
//! journaled the way a journaled server writes it — each SAMPLES batch,
//! then the events finalized with it, with an occasional delivery
//! cursor — so the query path's SAMPLES handling (validated, never
//! materialized) is on trial. Damage is a truncation of any segment
//! file, a SAMPLES record that passes its CRC but cannot be decoded
//! (its count field inflated and the frame CRC recomputed), or one
//! flipped bit inside a SAMPLES payload, which fails the frame CRC the
//! way media corruption would. Either of the last two can land inside
//! a sealed segment. Recovery (`read_session`) declares the tail torn
//! at exactly that record; the query, cold and cached, must stop there
//! too.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use emprof::core::{Confidence, EmprofConfig, StallEvent, StallKind};
use emprof::store::record::{RecordKind, MAX_SAMPLES_PER_RECORD};
use emprof::store::segment::{RECORD_HEADER_LEN, SEGMENT_HEADER_LEN};
use emprof::store::{
    crc32, query_journals, read_session, JournalConfig, QueryAccumulator, QueryResult, QuerySpec,
    SegmentCache, SessionJournal, SessionMeta,
};
use proptest::prelude::*;

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "emprof-prop-query-samples-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small segments so a few dozen batches roll several sealed segments,
/// some of them holding samples only.
fn journal_config() -> JournalConfig {
    JournalConfig {
        segment_bytes: 2048,
        sync_on_append: false,
        write_footers: true,
    }
}

fn meta(id: u64) -> SessionMeta {
    SessionMeta {
        session_id: id,
        resume_token: 7,
        sample_rate_hz: 40e6,
        clock_hz: 1.0e9,
        config: EmprofConfig::for_rates(40e6, 1.0e9),
        device: format!("dev-{id}"),
    }
}

/// Deterministic event from one arbitrary tuple, finalized with frame
/// `frame`: events move forward in time with the capture, as a
/// detector emits them, so sealed segments cover narrow event ranges
/// and range queries prune them.
fn ev(frame: u64, start: u32, dur: u16, sel: u8) -> StallEvent {
    let start = (frame * 1000 + u64::from(start % 1000)) as usize;
    StallEvent {
        start_sample: start,
        end_sample: start + 1 + (dur as usize % 64),
        duration_cycles: 1.0 + dur as f64,
        kind: if sel.is_multiple_of(5) {
            StallKind::RefreshCollision
        } else {
            StallKind::Normal
        },
        confidence: if sel.is_multiple_of(3) {
            Confidence::Degraded
        } else {
            Confidence::High
        },
    }
}

/// One server frame: a SAMPLES batch of `samples` magnitudes, then the
/// events the detector finalized with it.
type ServerFrame = (u16, Vec<(u32, u16, u8)>);

/// Journals a session as a journaled server does: samples first, then
/// the batch's events, acking every fourth frame's events.
fn write_session(dir: &Path, id: u64, frames: &[ServerFrame], cfg: &JournalConfig) {
    let mut journal = SessionJournal::create(dir, meta(id), cfg.clone()).unwrap();
    let mut next_event = 1u64;
    for (i, (n, events)) in frames.iter().enumerate() {
        let seq = i as u64 + 1;
        let samples: Vec<f64> = (0..*n as usize)
            .map(|k| ((seq * 131 + k as u64) as f64 * 0.01).sin())
            .collect();
        journal.append_samples(seq, &samples).unwrap();
        if !events.is_empty() {
            let evs: Vec<StallEvent> = events.iter().map(|&(s, d, k)| ev(seq, s, d, k)).collect();
            journal.append_events(next_event, &evs).unwrap();
            next_event += evs.len() as u64;
        }
        if seq.is_multiple_of(4) && next_event > 1 {
            journal.ack(next_event / 2).unwrap();
        }
    }
    journal.sync().unwrap();
}

/// Replay reference: full recovery of every session, pushed through the
/// engine's own accumulator. Returns the result and the number of torn
/// tails recovery repaired.
fn replay_reference(root: &Path, cfg: &JournalConfig, spec: &QuerySpec) -> (QueryResult, u32) {
    let mut dirs: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(root).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(id) = name
            .strip_prefix("session-")
            .and_then(|s| s.parse::<u64>().ok())
        {
            dirs.push((id, entry.path()));
        }
    }
    dirs.sort();
    let mut acc = QueryAccumulator::new(spec).unwrap();
    let mut truncations = 0;
    for (id, dir) in dirs {
        let Some(rec) = read_session(&dir, cfg.clone()).unwrap() else {
            continue;
        };
        truncations += rec.report.truncations;
        if spec.matches_session(id) {
            acc.add_session(id, &rec.meta.device, rec.events.iter());
        }
    }
    (acc.finish(), truncations)
}

fn stats_of(mut r: QueryResult) -> QueryResult {
    r.accounting = Default::default();
    r
}

/// Sorted `.emj` files one level under the root.
fn all_segment_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(root).unwrap() {
        for sub in std::fs::read_dir(entry.unwrap().path()).unwrap() {
            let p = sub.unwrap().path();
            if p.extension().is_some_and(|e| e == "emj") {
                files.push(p);
            }
        }
    }
    files.sort();
    files
}

/// Every SAMPLES frame under the root as `(file, frame offset)`, found
/// by walking the frame headers (the journals are undamaged here).
fn samples_frames(root: &Path) -> Vec<(PathBuf, usize)> {
    let mut found = Vec::new();
    for path in all_segment_files(root) {
        let bytes = std::fs::read(&path).unwrap();
        let mut offset = SEGMENT_HEADER_LEN;
        while offset < bytes.len() {
            let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            if bytes[offset + 4] == RecordKind::Samples as u8 {
                found.push((path.clone(), offset));
            }
            offset += RECORD_HEADER_LEN + len;
        }
    }
    found
}

/// Rewrites the count field of the SAMPLES frame at `offset` to
/// `count`, then recomputes the frame CRC: the record stays CRC-valid
/// but no longer decodes.
fn inflate_samples_count(path: &Path, offset: usize, count: u32) {
    let mut bytes = std::fs::read(path).unwrap();
    let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
    let payload = offset + RECORD_HEADER_LEN;
    bytes[payload + 8..payload + 12].copy_from_slice(&count.to_le_bytes());
    let mut crc_input = vec![bytes[offset + 4]];
    crc_input.extend_from_slice(&bytes[payload..payload + len]);
    bytes[offset + 5..offset + 9].copy_from_slice(&crc32(&crc_input).to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

/// Flips one bit of a sample in the SAMPLES frame at `offset`, leaving
/// the stored CRC alone, so the frame no longer passes it.
fn flip_sample_bit(path: &Path, offset: usize, at: u32) {
    let mut bytes = std::fs::read(path).unwrap();
    let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
    // Past the 12-byte seq + count header; every batch holds a sample.
    let byte = offset + RECORD_HEADER_LEN + 12 + at as usize % (len - 12);
    bytes[byte] ^= 1 << (at % 8);
    std::fs::write(path, &bytes).unwrap();
}

/// Cold, cached and re-cached queries over the damaged journals, then
/// the replay reference (which repairs in place). Returns recovery's
/// truncation count.
fn assert_query_equals_replay(root: &Path, spec: &QuerySpec) -> Result<u32, TestCaseError> {
    let cfg = journal_config();
    let cold = query_journals(root, spec, None).unwrap();
    let cache = SegmentCache::default();
    let warm = query_journals(root, spec, Some(&cache)).unwrap();
    let rewarm = query_journals(root, spec, Some(&cache)).unwrap();
    let (want, truncations) = replay_reference(root, &cfg, spec);
    prop_assert_eq!(stats_of(cold), stats_of(want.clone()));
    prop_assert_eq!(stats_of(warm), stats_of(want.clone()));
    prop_assert_eq!(stats_of(rewarm), stats_of(want));
    Ok(truncations)
}

fn frames_strategy() -> impl Strategy<Value = Vec<ServerFrame>> {
    prop::collection::vec(
        (
            1u16..300,
            prop::collection::vec((any::<u32>(), any::<u16>(), any::<u8>()), 0..2),
        ),
        4..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// query-equals-replay over interleaved SAMPLES/EVENTS journals
    /// under truncation damage, an undecodable SAMPLES record or a
    /// corrupt one, for arbitrary windows and session filters.
    #[test]
    fn query_equals_replay_with_samples(
        sessions in prop::collection::vec(frames_strategy(), 1..3),
        damage in 0u8..4,
        which in any::<u16>(),
        cut in any::<u32>(),
        inflate in any::<u32>(),
        t0 in any::<u32>(),
        span in any::<u32>(),
        filter_sel in 0u8..4,
    ) {
        let root = fresh_dir();
        std::fs::create_dir_all(&root).unwrap();
        let cfg = journal_config();
        for (i, frames) in sessions.iter().enumerate() {
            let id = i as u64 + 1;
            write_session(&root.join(format!("session-{id}")), id, frames, &cfg);
        }

        match damage {
            1 => {
                let files = all_segment_files(&root);
                let victim = &files[which as usize % files.len()];
                let bytes = std::fs::read(victim).unwrap();
                let cut = cut as usize % (bytes.len() + 1);
                std::fs::write(victim, &bytes[..cut]).unwrap();
            }
            2 => {
                let frames = samples_frames(&root);
                let (path, offset) = &frames[which as usize % frames.len()];
                // Past the bound, or just past what the payload holds.
                let count = if inflate.is_multiple_of(4) {
                    MAX_SAMPLES_PER_RECORD + 1 + inflate % 1024
                } else {
                    300 + inflate % 1024
                };
                inflate_samples_count(path, *offset, count);
            }
            3 => {
                let frames = samples_frames(&root);
                let (path, offset) = &frames[which as usize % frames.len()];
                flip_sample_bit(path, *offset, inflate);
            }
            _ => {}
        }

        let t0 = u64::from(t0 % 45_000);
        let t1 = if span.is_multiple_of(5) {
            u64::MAX
        } else {
            t0 + u64::from(span % 45_000)
        };
        let sessions = match filter_sel {
            0 | 1 => Vec::new(),
            2 => vec![1],
            _ => vec![2],
        };
        let spec = QuerySpec { t0, t1, sessions, bucket_samples: 0 };
        let truncations = assert_query_equals_replay(&root, &spec)?;
        if damage >= 2 {
            prop_assert_eq!(truncations, 1, "recovery must stop at the damaged record");
        }

        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Regression: an undecodable SAMPLES record inside a sealed segment
/// that holds no events. Its footer proves it holds nothing in range,
/// yet recovery stops inside it and drops every later segment; the
/// query must not fold those later segments either.
#[test]
fn undecodable_samples_in_sealed_segment_ends_the_query() {
    let narrow = QuerySpec {
        t0: 5_000,
        t1: 15_000,
        sessions: Vec::new(),
        bucket_samples: 0,
    };
    for spec in [QuerySpec::all(), narrow] {
        let root = fresh_dir();
        // Samples-only frames first (sealed, event-free segments), then
        // frames carrying events.
        let mut frames: Vec<ServerFrame> = (0..12).map(|_| (150, Vec::new())).collect();
        frames.extend((0..20u32).map(|i| (20, vec![(i * 1000, 40, i as u8)])));
        write_session(&root.join("session-1"), 1, &frames, &journal_config());
        let files = all_segment_files(&root);
        assert!(files.len() > 3, "need segments after the damaged one");
        let (path, offset) = samples_frames(&root)
            .into_iter()
            .find(|(path, _)| *path == files[1])
            .expect("the second segment holds samples");
        inflate_samples_count(&path, offset, 151);

        let truncations = assert_query_equals_replay(&root, &spec).unwrap();
        assert_eq!(truncations, 1, "recovery stops at the undecodable record");
        // Every event was journaled after the damage.
        assert_eq!(query_journals(&root, &spec, None).unwrap().events, 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
