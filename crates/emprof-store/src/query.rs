//! The query engine: range statistics over journal directories.
//!
//! Turns a directory of session journals (either a serve root holding
//! `session-<id>/` subdirectories or a flat `emprof record` directory
//! of segments) into Table-IV-style answers — stall-latency
//! percentiles, event-rate timelines, degraded fractions,
//! refresh-collision counts — over a `[t0, t1]` sample-index window
//! and a session set.
//!
//! ## query-equals-replay
//!
//! The headline invariant: every statistic a query returns is
//! bit-identical to recomputing it from a full replay of the same
//! journals. Three design choices enforce it by construction:
//!
//! 1. The fold is the *same* fold replay uses — events land in a
//!    last-wins map keyed by sequence, exactly like
//!    [`crate::session::SessionJournal::open`] — the statistics are
//!    computed by [`QueryAccumulator`], a pure function both the
//!    engine and any replay-side verifier share, and the engine stops
//!    at the first segment anomaly (duplicate base, bad header,
//!    overlapping coverage, torn tail) exactly where recovery would
//!    discard the rest of the journal.
//! 2. Footer pruning only skips folding a segment's events when its
//!    event interval `[min_event_start, max_event_end]` cannot
//!    intersect `[t0, t1]`, so a pruned segment can never hold an
//!    in-range event. (This leans on the append path journaling each
//!    event sequence exactly once, which the delivery layer
//!    guarantees.) Pruning never skips validating the segment's
//!    frames: a footer vouches for statistics, not for the frames
//!    before it, and recovery stops at the first undecodable one.
//! 3. The cache stores fully decoded sealed segments validated by file
//!    stat on every hit, so the hit path folds the same records the
//!    cold path would read.
//!
//! Reads are strictly read-only (segment scans, never
//! [`crate::journal::Journal::open`], which repairs in place), so
//! querying a live server's journals is safe. Ack-driven compaction
//! can still delete a segment between the directory listing and the
//! read; the engine re-lists and replans (compaction is prefix-only
//! and monotone, so a bounded number of replans always converges).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use emprof_core::StallEvent;
use emprof_obs::metrics::LogHistogram;
use emprof_obs::HistogramSnapshot;

use crate::cache::{DecodedSegment, SegmentCache};
use crate::record::{check_samples_payload, DecodeError, Record, RecordKind, SessionMeta};
use crate::segment::{parse_segment_file_name, scan_segment_with};

/// Upper bound on event-rate timeline buckets per query.
pub const MAX_TIMELINE_BUCKETS: u64 = 4096;

/// How many times a query replans a session after losing a segment to
/// concurrent compaction before giving up. Compaction only ever
/// deletes a monotone prefix, so each replan strictly shrinks the
/// contested range; this bound is never hit outside of pathological
/// delete loops.
const MAX_REPLANS: usize = 5;

/// What to compute, over which window and sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Window start, inclusive, in sample indexes (an event is in
    /// range when its `start_sample` is within `[t0, t1]`).
    pub t0: u64,
    /// Window end, inclusive. `t1 < t0` is a valid empty window.
    pub t1: u64,
    /// Sessions to include; empty means every session found.
    pub sessions: Vec<u64>,
    /// Event-rate timeline bucket width in samples; `0` disables the
    /// timeline. The window must span at most
    /// [`MAX_TIMELINE_BUCKETS`] buckets.
    pub bucket_samples: u64,
}

impl QuerySpec {
    /// The whole journal: every session, every event, no timeline.
    pub fn all() -> QuerySpec {
        QuerySpec {
            t0: 0,
            t1: u64::MAX,
            sessions: Vec::new(),
            bucket_samples: 0,
        }
    }

    /// Whether `session_id` passes the session filter.
    pub fn matches_session(&self, session_id: u64) -> bool {
        self.sessions.is_empty() || self.sessions.contains(&session_id)
    }

    /// Timeline length implied by the window, or an error when it
    /// would exceed [`MAX_TIMELINE_BUCKETS`].
    pub fn timeline_len(&self) -> io::Result<usize> {
        if self.bucket_samples == 0 || self.t1 < self.t0 {
            return Ok(0);
        }
        let buckets = ((self.t1 - self.t0) / self.bucket_samples).checked_add(1);
        match buckets {
            Some(n) if n <= MAX_TIMELINE_BUCKETS => Ok(n as usize),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "query window spans too many timeline buckets",
            )),
        }
    }
}

/// Per-session statistics row in a [`QueryResult`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuerySessionRow {
    /// The session id.
    pub session_id: u64,
    /// Device label from the session's identity checkpoint.
    pub device: String,
    /// In-range events.
    pub events: u64,
    /// In-range events with degraded confidence.
    pub degraded: u64,
    /// In-range refresh-collision events.
    pub refresh_collisions: u64,
}

/// How much work the engine did (and avoided) answering a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryAccounting {
    /// Segments whose records were folded (from disk or cache).
    pub segments_scanned: u64,
    /// Segments whose footer proved they hold no in-range events, so
    /// none of their events were folded. Read from disk, such a segment
    /// is still walked and validated; from the cache it needs no read.
    pub segments_pruned: u64,
    /// Decoded-segment cache hits.
    pub cache_hits: u64,
    /// Decoded-segment cache misses.
    pub cache_misses: u64,
}

/// The answer to a [`QuerySpec`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryResult {
    /// In-range events across all matched sessions.
    pub events: u64,
    /// Of those, events with degraded confidence.
    pub degraded: u64,
    /// Of those, refresh-collision events.
    pub refresh_collisions: u64,
    /// Stall-latency distribution (duration in cycles, truncated to
    /// integers) over the in-range events; quantiles via
    /// [`HistogramSnapshot::quantile`].
    pub latency: HistogramSnapshot,
    /// Event counts per timeline bucket (empty when the spec disables
    /// the timeline). Bucket `i` covers samples
    /// `[t0 + i*bucket_samples, t0 + (i+1)*bucket_samples)`.
    pub timeline: Vec<u64>,
    /// Per-session rows, ordered by session id.
    pub sessions: Vec<QuerySessionRow>,
    /// Work accounting.
    pub accounting: QueryAccounting,
}

/// The shared statistics fold: both the query engine and replay-side
/// verifiers push `(sequence, event)` streams through this, so
/// query-equals-replay is bit-identity by construction, not by two
/// implementations agreeing.
#[derive(Debug)]
pub struct QueryAccumulator {
    spec: QuerySpec,
    events: u64,
    degraded: u64,
    refresh_collisions: u64,
    hist: LogHistogram,
    timeline: Vec<u64>,
    rows: Vec<QuerySessionRow>,
    /// Work accounting, merged in by the engine; stays zero for pure
    /// replay-side use.
    pub accounting: QueryAccounting,
}

impl QueryAccumulator {
    /// Builds an accumulator for `spec`.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the timeline would exceed
    /// [`MAX_TIMELINE_BUCKETS`].
    pub fn new(spec: &QuerySpec) -> io::Result<QueryAccumulator> {
        let timeline = vec![0u64; spec.timeline_len()?];
        Ok(QueryAccumulator {
            spec: spec.clone(),
            events: 0,
            degraded: 0,
            refresh_collisions: 0,
            hist: LogHistogram::new(),
            timeline,
            rows: Vec::new(),
            accounting: QueryAccounting::default(),
        })
    }

    /// Folds one session's deduplicated `(sequence, event)` stream.
    /// The caller must already have applied last-wins sequence dedup
    /// (a `BTreeMap` fold, as replay does); this applies the `[t0,
    /// t1]` range filter and the statistics.
    pub fn add_session<'a, I>(&mut self, session_id: u64, device: &str, events: I)
    where
        I: IntoIterator<Item = &'a (u64, StallEvent)>,
    {
        use emprof_core::{Confidence, StallKind};
        let mut row = QuerySessionRow {
            session_id,
            device: device.to_string(),
            ..QuerySessionRow::default()
        };
        for (_, e) in events {
            let start = e.start_sample as u64;
            if start < self.spec.t0 || start > self.spec.t1 {
                continue;
            }
            row.events += 1;
            if e.confidence == Confidence::Degraded {
                row.degraded += 1;
            }
            if e.kind == StallKind::RefreshCollision {
                row.refresh_collisions += 1;
            }
            // Durations are f64 cycles; the histogram domain is u64.
            // `as` saturates (NaN to 0), identically everywhere.
            self.hist.record(e.duration_cycles as u64);
            if !self.timeline.is_empty() {
                let bucket = ((start - self.spec.t0) / self.spec.bucket_samples) as usize;
                self.timeline[bucket] += 1;
            }
        }
        self.events += row.events;
        self.degraded += row.degraded;
        self.refresh_collisions += row.refresh_collisions;
        self.rows.push(row);
    }

    /// Finishes the fold into a [`QueryResult`]. Rows are ordered by
    /// session id so the result is independent of discovery order.
    pub fn finish(mut self) -> QueryResult {
        self.rows.sort_by_key(|r| r.session_id);
        QueryResult {
            events: self.events,
            degraded: self.degraded,
            refresh_collisions: self.refresh_collisions,
            latency: HistogramSnapshot {
                count: self.hist.count(),
                sum: self.hist.sum(),
                min: self.hist.min(),
                max: self.hist.max(),
                buckets: self.hist.nonzero_buckets(),
            },
            timeline: self.timeline,
            sessions: self.rows,
            accounting: self.accounting,
        }
    }
}

/// Evaluates `spec` over the journals under `root`.
///
/// `root` may be a serve journal root (`session-<id>/` subdirectories)
/// or a flat `emprof record` directory of segments. Sessions without a
/// surviving identity checkpoint contribute nothing (exactly as replay
/// treats them). Pass a [`SegmentCache`] to reuse decoded sealed
/// segments across queries.
///
/// # Errors
///
/// Propagates I/O failures and `InvalidInput` for an over-wide
/// timeline; corrupt segments are not errors (the valid prefix
/// contributes, as in replay).
pub fn query_journals(
    root: &Path,
    spec: &QuerySpec,
    cache: Option<&SegmentCache>,
) -> io::Result<QueryResult> {
    let mut acc = QueryAccumulator::new(spec)?;
    for (id_hint, dir) in discover_sessions(root)? {
        // A directory-named session the filter excludes is skipped
        // without touching any of its segments.
        if let Some(id) = id_hint {
            if !spec.matches_session(id) {
                continue;
            }
        }
        query_session(&dir, id_hint, spec, cache, &mut acc)?;
    }
    Ok(acc.finish())
}

/// Lists the session directories under a journal root. A root that
/// itself holds segment files (the `emprof record` layout) is a single
/// anonymous session whose id comes from its Meta checkpoint.
fn discover_sessions(root: &Path) -> io::Result<Vec<(Option<u64>, PathBuf)>> {
    let mut sessions: Vec<(Option<u64>, PathBuf)> = Vec::new();
    let mut has_segments = false;
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        let ft = entry.file_type()?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if ft.is_dir() {
            if let Some(id) = name
                .strip_prefix("session-")
                .and_then(|s| s.parse::<u64>().ok())
            {
                sessions.push((Some(id), entry.path()));
            }
        } else if ft.is_file() && parse_segment_file_name(&name).is_some() {
            has_segments = true;
        }
    }
    if sessions.is_empty() && has_segments {
        sessions.push((None, root.to_path_buf()));
    }
    sessions.sort_by_key(|(id, _)| *id);
    Ok(sessions)
}

/// Queries one session directory, replanning when compaction deletes a
/// listed segment out from under the read.
fn query_session(
    dir: &Path,
    id_hint: Option<u64>,
    spec: &QuerySpec,
    cache: Option<&SegmentCache>,
    acc: &mut QueryAccumulator,
) -> io::Result<()> {
    for _ in 0..MAX_REPLANS {
        match query_session_once(dir, spec, cache) {
            Ok(None) => return Ok(()),
            Ok(Some((meta, events, acct))) => {
                acc.accounting.segments_scanned += acct.segments_scanned;
                acc.accounting.segments_pruned += acct.segments_pruned;
                acc.accounting.cache_hits += acct.cache_hits;
                acc.accounting.cache_misses += acct.cache_misses;
                let session_id = id_hint.unwrap_or(meta.session_id);
                if spec.matches_session(session_id) {
                    acc.add_session(session_id, &meta.device, events.iter());
                }
                return Ok(());
            }
            // A listed segment vanished: ack-driven compaction beat us
            // to it. Re-list and replan; the partial attempt's
            // accounting is discarded so nothing double-counts.
            Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        }
    }
    Err(io::Error::other(
        "query lost a segment to compaction on every replan",
    ))
}

type SessionRead = (SessionMeta, Vec<(u64, StallEvent)>, QueryAccounting);

/// One read attempt over a session directory snapshot. `NotFound` from
/// any segment read means the snapshot went stale (compaction); the
/// caller replans.
fn query_session_once(
    dir: &Path,
    spec: &QuerySpec,
    cache: Option<&SegmentCache>,
) -> io::Result<Option<SessionRead>> {
    let mut segs: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(base) = parse_segment_file_name(name) {
            segs.push((base, entry.path()));
        }
    }
    segs.sort_by_key(|s| s.0);
    if segs.is_empty() {
        return Ok(None);
    }
    let mut meta: Option<SessionMeta> = None;
    let mut events: BTreeMap<u64, StallEvent> = BTreeMap::new();
    let mut acct = QueryAccounting::default();
    // Replay's valid-prefix state machine, mirrored record for record:
    // recovery (`Journal::open`) discards everything after the first
    // anomaly — a duplicate base, a bad or mismatched header,
    // overlapping index coverage, or a torn tail — so a bit-identical
    // query must stop folding at exactly the same segment.
    let mut next_index = 0u64;
    let mut last_base: Option<u64> = None;
    for (i, (base, path)) in segs.iter().enumerate() {
        if last_base == Some(*base) {
            // Duplicate base: recovery keeps the first copy and drops
            // the rest of the journal.
            break;
        }
        last_base = Some(*base);
        let md = fs::metadata(path)?;
        let (file_len, modified) = (md.len(), md.modified().ok());
        if let Some(c) = cache {
            if let Some(seg) = c.get(dir, *base, file_len, modified) {
                acct.cache_hits += 1;
                if *base < next_index {
                    // Overlapping coverage: outside the valid prefix.
                    break;
                }
                if let Some(m) = &seg.meta {
                    meta = Some(m.clone());
                }
                // The first retained segment always folds: checkpoint
                // discipline puts the session's Meta at its head, and
                // pruning decisions only ever skip event payloads.
                if i > 0 && !seg.footer.overlaps(spec.t0, spec.t1) {
                    acct.segments_pruned += 1;
                } else {
                    for (seq, ev) in &seg.events {
                        events.insert(*seq, *ev);
                    }
                    acct.segments_scanned += 1;
                }
                // The scan recovery would run counts the footer record
                // itself; the footer's own record_count does not.
                next_index = *base + seg.footer.record_count + 1;
                continue;
            }
            acct.cache_misses += 1;
        }
        let Some(scan) = scan_segment_with(path, decode_for_query)? else {
            // Invalid header: recovery drops this file and everything
            // after it.
            break;
        };
        if scan.base_index != *base || scan.base_index < next_index {
            // A header disagreeing with the file name, or claiming an
            // index range an earlier segment already covers: named
            // corruption, end of the valid prefix.
            break;
        }
        let mut seg_meta: Option<SessionMeta> = None;
        let mut seg_events: Vec<(u64, StallEvent)> = Vec::new();
        for (_, rec) in &scan.records {
            match rec {
                Some(Record::Meta(m)) => seg_meta = Some(m.clone()),
                Some(Record::Events {
                    first_seq,
                    events: evs,
                }) => {
                    for (k, ev) in evs.iter().enumerate() {
                        seg_events.push((first_seq + k as u64, *ev));
                    }
                }
                _ => {}
            }
        }
        if let Some(m) = &seg_meta {
            meta = Some(m.clone());
        }
        // Only a sealed segment — a clean scan ending in its footer — is
        // immutable, so only its footer may prune it or the cache keep
        // it. Pruning happens after the scan, never instead of it: a
        // footer says nothing about the frames before it, and recovery
        // stops at the first damaged one even in a sealed segment.
        let footer = match scan.records.last() {
            Some((_, Some(Record::Footer(footer)))) if !scan.torn => Some(*footer),
            _ => None,
        };
        if i > 0 && footer.is_some_and(|f| !f.overlaps(spec.t0, spec.t1)) {
            acct.segments_pruned += 1;
        } else {
            acct.segments_scanned += 1;
            for (seq, ev) in &seg_events {
                events.insert(*seq, *ev);
            }
        }
        next_index = scan.base_index + scan.records.len() as u64;
        if let (Some(c), Some(footer)) = (cache, footer) {
            c.insert(
                dir,
                *base,
                Arc::new(DecodedSegment {
                    base_index: *base,
                    meta: seg_meta,
                    events: seg_events,
                    footer,
                    file_len,
                    modified,
                }),
            );
        }
        if scan.torn {
            // Recovery truncates a torn segment to its valid prefix
            // (which we just folded) and drops every later segment.
            break;
        }
    }
    let Some(meta) = meta else {
        // No identity checkpoint survived: replay discards such a
        // journal, so queries do too.
        return Ok(None);
    };
    Ok(Some((meta, events.into_iter().collect(), acct)))
}

/// The query path's payload decoder. A SAMPLES record gets the same
/// structural check [`Record::decode`] runs on it, so the scan stops at
/// exactly the record recovery would, but its samples are never
/// materialized (`None`); every other kind decodes in full.
fn decode_for_query(kind: u8, payload: &[u8]) -> Result<Option<Record>, DecodeError> {
    if kind == RecordKind::Samples as u8 {
        check_samples_payload(payload)?;
        return Ok(None);
    }
    Record::decode(kind, payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalConfig;
    use crate::session::SessionJournal;
    use emprof_core::{Confidence, EmprofConfig, StallKind};
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "emprof-store-query-{}-{}-{tag}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta(id: u64) -> SessionMeta {
        SessionMeta {
            session_id: id,
            resume_token: 9,
            sample_rate_hz: 40e6,
            clock_hz: 1.0e9,
            config: EmprofConfig::for_rates(40e6, 1.0e9),
            device: format!("dev-{id}"),
        }
    }

    fn ev(start: usize, dur: f64, kind: StallKind, conf: Confidence) -> StallEvent {
        StallEvent {
            start_sample: start,
            end_sample: start + 10,
            duration_cycles: dur,
            kind,
            confidence: conf,
        }
    }

    fn small_cfg() -> JournalConfig {
        JournalConfig {
            segment_bytes: 256,
            sync_on_append: false,
            ..Default::default()
        }
    }

    /// Writes one session with events at start = seq * 1000.
    fn write_session(dir: &Path, id: u64, n: u64) {
        let mut sj = SessionJournal::create(dir, meta(id), small_cfg()).unwrap();
        for seq in 1..=n {
            let kind = if seq % 5 == 0 {
                StallKind::RefreshCollision
            } else {
                StallKind::Normal
            };
            let conf = if seq % 3 == 0 {
                Confidence::Degraded
            } else {
                Confidence::High
            };
            sj.append_events(seq, &[ev((seq * 1000) as usize, 100.0 + seq as f64, kind, conf)])
                .unwrap();
        }
        sj.sync().unwrap();
    }

    #[test]
    fn query_matches_replay_fold() {
        let root = tmp_dir("replayeq");
        write_session(&root.join("session-1"), 1, 40);
        let spec = QuerySpec {
            t0: 5_000,
            t1: 20_000,
            sessions: Vec::new(),
            bucket_samples: 1000,
        };
        let got = query_journals(&root, &spec, None).unwrap();

        // Replay side: full recovery fold, same accumulator.
        let rec = crate::session::read_session(&root.join("session-1"), small_cfg())
            .unwrap()
            .unwrap();
        let mut acc = QueryAccumulator::new(&spec).unwrap();
        acc.add_session(1, &rec.meta.device, rec.events.iter());
        let want = acc.finish();
        assert_eq!(got.events, want.events);
        assert_eq!(got.latency, want.latency);
        assert_eq!(got.timeline, want.timeline);
        assert_eq!(got.sessions, want.sessions);
        assert_eq!(got.events, 16, "starts 5000..=20000 inclusive");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn range_query_prunes_segments() {
        let root = tmp_dir("prune");
        let dir = root.join("session-1");
        write_session(&dir, 1, 60);
        let all = query_journals(&root, &QuerySpec::all(), None).unwrap();
        assert!(
            all.accounting.segments_scanned > 4,
            "need a multi-segment journal, got {:?}",
            all.accounting
        );
        assert_eq!(all.accounting.segments_pruned, 0);
        // A narrow window must read strictly fewer segments.
        let narrow = query_journals(
            &root,
            &QuerySpec {
                t0: 55_000,
                t1: 60_000,
                sessions: Vec::new(),
                bucket_samples: 0,
            },
            None,
        )
        .unwrap();
        assert!(narrow.accounting.segments_pruned > 0);
        assert!(narrow.accounting.segments_scanned < all.accounting.segments_scanned);
        assert_eq!(narrow.events, 6, "seqs 55..=60");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cached_and_cold_results_are_identical() {
        let root = tmp_dir("cachecoherent");
        write_session(&root.join("session-3"), 3, 50);
        let spec = QuerySpec {
            t0: 0,
            t1: 30_000,
            sessions: Vec::new(),
            bucket_samples: 0,
        };
        let cold = query_journals(&root, &spec, None).unwrap();
        let cache = SegmentCache::default();
        let first = query_journals(&root, &spec, Some(&cache)).unwrap();
        let second = query_journals(&root, &spec, Some(&cache)).unwrap();
        assert!(second.accounting.cache_hits > 0, "{:?}", second.accounting);
        for r in [&first, &second] {
            assert_eq!(r.events, cold.events);
            assert_eq!(r.latency, cold.latency);
            assert_eq!(r.sessions, cold.sessions);
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn session_filter_and_flat_layout() {
        let root = tmp_dir("filterflat");
        write_session(&root.join("session-1"), 1, 5);
        write_session(&root.join("session-2"), 2, 5);
        let only2 = query_journals(
            &root,
            &QuerySpec {
                sessions: vec![2],
                ..QuerySpec::all()
            },
            None,
        )
        .unwrap();
        assert_eq!(only2.sessions.len(), 1);
        assert_eq!(only2.sessions[0].session_id, 2);
        assert_eq!(only2.sessions[0].device, "dev-2");

        // Flat layout: segments directly in the root.
        let flat = tmp_dir("flat");
        write_session(&flat, 9, 4);
        let r = query_journals(&flat, &QuerySpec::all(), None).unwrap();
        assert_eq!(r.sessions.len(), 1);
        assert_eq!(r.sessions[0].session_id, 9, "id from Meta checkpoint");
        assert_eq!(r.events, 4);
        fs::remove_dir_all(&root).unwrap();
        fs::remove_dir_all(&flat).unwrap();
    }

    #[test]
    fn empty_window_and_empty_root() {
        let root = tmp_dir("empty");
        write_session(&root.join("session-1"), 1, 5);
        let spec = QuerySpec {
            t0: 10,
            t1: 5,
            sessions: Vec::new(),
            bucket_samples: 100,
        };
        let r = query_journals(&root, &spec, None).unwrap();
        assert_eq!(r.events, 0);
        assert_eq!(r.timeline, Vec::<u64>::new());
        assert_eq!(r.latency.count, 0);
        // An empty directory is an empty result, not an error.
        let none = tmp_dir("none");
        fs::create_dir_all(&none).unwrap();
        let r = query_journals(&none, &QuerySpec::all(), None).unwrap();
        assert_eq!(r.sessions.len(), 0);
        fs::remove_dir_all(&root).unwrap();
        fs::remove_dir_all(&none).unwrap();
    }

    #[test]
    fn oversized_timeline_is_rejected() {
        let spec = QuerySpec {
            t0: 0,
            t1: u64::MAX,
            sessions: Vec::new(),
            bucket_samples: 1,
        };
        assert!(spec.timeline_len().is_err());
    }
}
