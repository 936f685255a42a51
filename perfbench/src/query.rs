//! `journal_query` leg: one closed-loop client over a seeded corpus of
//! unfinished journaled sessions, in two classes per query:
//!
//! - `cold`: local `query_journals` with a fresh `SegmentCache`, as
//!   `emprof query --journal` runs it;
//! - `warm`: a QUERY frame to a journaled `Server` bound over the
//!   corpus, whose cache was warmed before timing, as
//!   `emprof query --addr` runs it.
//!
//! Every answer is checked against full replay: `read_session` of each
//! session pushed through the same `QueryAccumulator`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use emprof_core::{StallEvent, StreamingEmprof};
use emprof_serve::{
    query_result_to_wire, query_spec_from_wire, MetricsClient, QueryResultWire, QuerySpecWire,
    ServeConfig, Server,
};
use emprof_store::{
    query_journals, read_session, JournalConfig, QueryAccumulator, QueryResult, QuerySpec,
    SegmentCache, SegmentCacheConfig, SessionJournal, SessionMeta,
};

use crate::ingest::{client_config, config, dip_train, CLK, FS};
use crate::report::Tally;
use crate::rng::Rng;
use crate::trace::Tracer;

/// Corpus sessions, samples per session, and the segment target they
/// are journaled with. At 1 MiB each session holds two sealed segments
/// and an open tail: the engine always folds a session's first segment,
/// so the second is the one footers can prune, and the sealed ones are
/// what the cache holds. The server's own 4 MiB target would need four
/// times the samples for the same layout, and 100 cold and warm queries
/// would then outlast a 20% share of the run.
pub const CORPUS_SESSIONS: usize = 3;
pub const CORPUS_SAMPLES: usize = 300_000;
const CORPUS_SEGMENT_BYTES: u64 = 1 << 20;
/// Samples per journaled SAMPLES batch.
const CORPUS_BATCH: usize = 8_192;
/// Width of a narrow window, in samples.
const NARROW: u64 = 20_000;
/// Queries per class a run always completes, so p90 has at least ten
/// samples beyond it.
pub const MIN_PER_CLASS: usize = 100;
/// A query slower than this counts as failed.
const QUERY_LIMIT: Duration = Duration::from_secs(5);

/// One replayed session: id, device label and `(sequence, event)`s.
type Replayed = (u64, String, Vec<(u64, StallEvent)>);

/// The corpus, the server bound over it, and the replay oracle.
pub struct Corpus {
    pub dir: PathBuf,
    pub server: Server,
    pub replay: Vec<Replayed>,
    /// Seconds `Server::bind` took to recover the corpus.
    pub recover_s: f64,
}

impl Corpus {
    /// Journals the seeded sessions as a journaled server does (each
    /// SAMPLES batch, then the events the streaming detector finalized
    /// with it), leaves them unfinished as a killed writer would, then
    /// recovers them into the server the warm class queries.
    pub fn build(rng: &Rng, dir: &Path) -> std::io::Result<Corpus> {
        std::fs::create_dir_all(dir)?;
        let cfg = JournalConfig {
            segment_bytes: CORPUS_SEGMENT_BYTES,
            ..JournalConfig::default()
        };
        for k in 0..CORPUS_SESSIONS {
            let id = k as u64 + 1;
            let meta = SessionMeta {
                session_id: id,
                resume_token: rng.fork(0x70 + id).next_u64(),
                sample_rate_hz: FS,
                clock_hz: CLK,
                config: config(),
                device: format!("rig-{k}"),
            };
            let mut journal =
                SessionJournal::create(&dir.join(format!("session-{id}")), meta, cfg.clone())?;
            let mut detector = StreamingEmprof::new(config(), FS, CLK);
            let mut next_event = 1u64;
            let signal = dip_train(rng.fork(0xC0 + k as u64), CORPUS_SAMPLES);
            for (i, batch) in signal.chunks(CORPUS_BATCH).enumerate() {
                journal.append_samples(i as u64 + 1, batch)?;
                detector.extend_from_slice(batch);
                let events = detector.drain_events();
                if !events.is_empty() {
                    journal.append_events(next_event, &events)?;
                    next_event += events.len() as u64;
                }
            }
        }

        let t0 = Instant::now();
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                journal_dir: Some(dir.to_path_buf()),
                idle_timeout: Duration::from_secs(3_600),
                ..ServeConfig::default()
            },
        )?;
        let recover_s = t0.elapsed().as_secs_f64();
        let replay = replay(dir)?;
        if replay.len() != CORPUS_SESSIONS {
            return Err(std::io::Error::other(format!(
                "corpus recovered {} of {CORPUS_SESSIONS} sessions",
                replay.len()
            )));
        }
        let corpus = Corpus {
            dir: dir.to_path_buf(),
            server,
            replay,
            recover_s,
        };
        // Warm the server's decoded-segment cache.
        let mut mc = MetricsClient::connect_with(corpus.server.local_addr(), client_config())
            .map_err(std::io::Error::other)?;
        mc.query(&QuerySpecWire::default())
            .map_err(std::io::Error::other)?;
        Ok(corpus)
    }

    /// The leg's query sequence for `rng`.
    pub fn mix(&self, rng: &Rng) -> Mix {
        Mix::new(rng.fork(0x9E), self.replay.iter().map(|r| r.0).collect())
    }

    /// The replay answer to `spec`.
    pub fn oracle(&self, spec: &QuerySpec) -> QueryResult {
        let mut acc = QueryAccumulator::new(spec).expect("valid query spec");
        for (id, device, events) in &self.replay {
            if spec.matches_session(*id) {
                acc.add_session(*id, device, events.iter());
            }
        }
        acc.finish()
    }
}

fn replay(dir: &Path) -> std::io::Result<Vec<Replayed>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(id) = name
            .strip_prefix("session-")
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if let Some(rec) = read_session(&entry.path(), JournalConfig::default())? {
            out.push((id, rec.meta.device, rec.events));
        }
    }
    out.sort_by_key(|r| r.0);
    Ok(out)
}

/// The seeded query mix: full-range windows, narrow windows footers can
/// prune, one-session filters, and full-range 256-bucket timelines. Each
/// block of four queries holds one of each kind in a seeded order, so
/// every run has the same composition. Only the session filters and the
/// pruned narrow windows (under half of all queries) are cheap, so the
/// class medians fall inside the full-scan cluster, not on its edge.
pub struct Mix {
    rng: Rng,
    session_ids: Vec<u64>,
    block: Vec<u8>,
}

impl Mix {
    pub fn new(rng: Rng, session_ids: Vec<u64>) -> Mix {
        Mix {
            rng,
            session_ids,
            block: Vec::new(),
        }
    }

    pub fn next_spec(&mut self) -> QuerySpecWire {
        if self.block.is_empty() {
            self.block = vec![0, 1, 2, 3];
            self.rng.shuffle(&mut self.block);
        }
        let n = CORPUS_SAMPLES as u64;
        match self.block.pop().expect("refilled above") {
            0 => QuerySpecWire::default(),
            1 => {
                let t0 = self.rng.below(n - NARROW);
                QuerySpecWire {
                    t0,
                    t1: t0 + NARROW,
                    ..QuerySpecWire::default()
                }
            }
            2 => {
                let ids = &self.session_ids;
                QuerySpecWire {
                    sessions: vec![ids[self.rng.below(ids.len() as u64) as usize]],
                    ..QuerySpecWire::default()
                }
            }
            _ => QuerySpecWire {
                t0: 0,
                t1: n - 1,
                bucket_samples: n / 256 + 1,
                ..QuerySpecWire::default()
            },
        }
    }
}

/// Strips work accounting: cache hits and scan counts legitimately
/// differ between classes; the statistics must not.
pub fn stats_only(r: &QueryResultWire) -> QueryResultWire {
    QueryResultWire {
        segments_scanned: 0,
        segments_pruned: 0,
        cache_hits: 0,
        cache_misses: 0,
        nodes: 0,
        ..r.clone()
    }
}

/// What the leg measured.
#[derive(Debug, Default)]
pub struct QueryOut {
    pub cold_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
    /// Accounting summed over the first [`MIN_PER_CLASS`] cold queries:
    /// exact for a given seed.
    pub cold_scanned: u64,
    pub cold_pruned: u64,
    /// Warm-class cache accounting over every warm query.
    pub warm_hits: u64,
    pub warm_misses: u64,
    /// The warm replies, for the codec probe.
    pub replies: Vec<QueryResultWire>,
}

/// Alternates one cold and one warm query per seeded spec until
/// `budget` has passed and each class has [`MIN_PER_CLASS`] answers.
pub fn run(
    corpus: &Corpus,
    rng: &Rng,
    budget: Duration,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> QueryOut {
    let mut mix = corpus.mix(rng);
    let mut out = QueryOut::default();
    let mut mc = match MetricsClient::connect_with(corpus.server.local_addr(), client_config()) {
        Ok(mc) => mc,
        Err(e) => {
            tally.wrong(format!("query: connect failed: {e}"));
            return out;
        }
    };
    let start = Instant::now();
    let mut k = 0u64;
    while k < MIN_PER_CLASS as u64 || start.elapsed() < budget {
        let wire_spec = mix.next_spec();
        let spec = query_spec_from_wire(&wire_spec);
        let expect = stats_only(&query_result_to_wire(&corpus.oracle(&spec)));

        let t0 = Instant::now();
        let root = tracer.begin("query.cold", k);
        let cold = tracer.span("store.query", k, || {
            query_journals(
                &corpus.dir,
                &spec,
                Some(&SegmentCache::new(SegmentCacheConfig::default())),
            )
        });
        tracer.end(root);
        let cold_t = t0.elapsed();
        match cold {
            Ok(r) if stats_only(&query_result_to_wire(&r)) == expect => {
                out.cold_ms.push(cold_t.as_secs_f64() * 1e3);
                if k < MIN_PER_CLASS as u64 {
                    out.cold_scanned += r.accounting.segments_scanned;
                    out.cold_pruned += r.accounting.segments_pruned;
                }
                tally.op(cold_t <= QUERY_LIMIT);
            }
            Ok(_) => tally.wrong(format!("cold query {spec:?} differs from replay")),
            Err(e) => tally.wrong(format!("cold query {spec:?}: {e}")),
        }

        let t0 = Instant::now();
        let root = tracer.begin("query.warm", k);
        let warm = tracer.span("serve.query", k, || mc.query(&wire_spec));
        tracer.end(root);
        let warm_t = t0.elapsed();
        match warm {
            Ok(r) if stats_only(&r) == expect => {
                out.warm_ms.push(warm_t.as_secs_f64() * 1e3);
                out.warm_hits += r.cache_hits;
                out.warm_misses += r.cache_misses;
                tally.op(warm_t <= QUERY_LIMIT);
                if out.replies.len() < 64 {
                    out.replies.push(r);
                }
            }
            Ok(_) => tally.wrong(format!("warm query {spec:?} differs from replay")),
            Err(e) => tally.wrong(format!("warm query {spec:?}: {e}")),
        }
        k += 1;
    }
    out
}

/// Latencies of the in-process warm queries.
pub struct InProcessWarm {
    /// Untraced latency per spec, ms.
    pub untraced_ms: Vec<f64>,
    /// Traced minus untraced latency per spec, ms.
    pub traced_extra_ms: Vec<f64>,
}

/// In-process warm queries: the first `n` specs of the leg's mix through
/// `query_journals` with one shared cache, warmed first. Each spec runs
/// twice, once inside the spans the leg records and once with tracing
/// off, alternating which goes first.
pub fn in_process_warm(corpus: &Corpus, rng: &Rng, n: usize) -> InProcessWarm {
    let mut mix = corpus.mix(rng);
    let cache = SegmentCache::new(SegmentCacheConfig::default());
    query_journals(&corpus.dir, &QuerySpec::all(), Some(&cache)).expect("warm the cache");
    let epoch = Instant::now();
    let mut traced = Tracer::new(true, epoch, 0);
    let mut untraced = Tracer::new(false, epoch, 0);
    let timed = |tracer: &mut Tracer, spec: &QuerySpec, k: u64| {
        let t0 = Instant::now();
        let root = tracer.begin("query.warm", k);
        let r = tracer.span("store.query", k, || {
            query_journals(&corpus.dir, spec, Some(&cache))
        });
        tracer.end(root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(r.expect("in-process query"));
        ms
    };
    let mut out = InProcessWarm {
        untraced_ms: Vec::with_capacity(n),
        traced_extra_ms: Vec::with_capacity(n),
    };
    for k in 0..n as u64 {
        let spec = query_spec_from_wire(&mix.next_spec());
        let (on, off) = if k % 2 == 0 {
            let on = timed(&mut traced, &spec, k);
            (on, timed(&mut untraced, &spec, k))
        } else {
            let off = timed(&mut untraced, &spec, k);
            (timed(&mut traced, &spec, k), off)
        };
        out.untraced_ms.push(off);
        out.traced_extra_ms.push(on - off);
    }
    out
}
