//! On-disk segment format: a fixed header followed by CRC-framed
//! records.
//!
//! ```text
//! segment header (24 bytes)
//!   offset  size  field
//!   0       8     magic            b"EMPROFJ1"
//!   8       4     format version   (currently 1)
//!   12      8     base index       journal index of the first record
//!   20      4     header CRC-32    over bytes 0..20
//!
//! record frame (9-byte header + payload)
//!   offset  size  field
//!   0       4     payload length   bounded by MAX_RECORD
//!   4       1     record kind      (RecordKind)
//!   5       4     CRC-32           over the kind byte + payload
//!   9       len   payload
//! ```
//!
//! Every reader goes through one framing walker, `FrameWalker`: it
//! validates the header, then walks records front to back. The first
//! frame that is truncated, oversized, or CRC-corrupt ends the valid
//! prefix: everything before it is intact (CRC-verified), everything
//! from it on is treated as a torn write. Walking never panics and
//! never copies a payload; payloads are borrowed from the file bytes.

use std::fs;
use std::io;
use std::path::Path;

use crate::crc::{crc32, Crc32};
use crate::record::{encode_samples_payload, samples_payload_len, Record, RecordKind};

/// First eight bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"EMPROFJ1";

/// On-disk format version.
pub const FORMAT_VERSION: u32 = 1;

/// Fixed segment-header length in bytes.
pub const SEGMENT_HEADER_LEN: usize = 24;

/// Fixed record-frame header length in bytes.
pub const RECORD_HEADER_LEN: usize = 9;

/// Upper bound on any record payload (16 MiB). A frame announcing more
/// is corruption by definition and ends the valid prefix.
pub const MAX_RECORD: u32 = 1 << 24;

/// Builds the canonical file name for a segment.
pub fn segment_file_name(base_index: u64) -> String {
    format!("seg-{base_index:020}.emj")
}

/// Parses a segment file name back to its base index.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("seg-")?
        .strip_suffix(".emj")?
        .parse()
        .ok()
}

/// Serializes a segment header for `base_index`.
pub fn encode_segment_header(base_index: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[0..8].copy_from_slice(&SEGMENT_MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&base_index.to_le_bytes());
    let crc = crc32(&h[..20]);
    h[20..24].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Validates a segment header, returning its base index.
pub fn decode_segment_header(h: &[u8]) -> Option<u64> {
    if h.len() < SEGMENT_HEADER_LEN || h[0..8] != SEGMENT_MAGIC {
        return None;
    }
    if u32::from_le_bytes(h[8..12].try_into().unwrap()) != FORMAT_VERSION {
        return None;
    }
    if u32::from_le_bytes(h[20..24].try_into().unwrap()) != crc32(&h[..20]) {
        return None;
    }
    Some(u64::from_le_bytes(h[12..20].try_into().unwrap()))
}

/// Builds one record frame in a single buffer: a zeroed frame header,
/// the payload `write` appends (exactly `payload_len` bytes), then the
/// length, kind and CRC patched into the header in place.
fn encode_frame(kind: RecordKind, payload_len: usize, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    debug_assert!(payload_len <= MAX_RECORD as usize, "record too large");
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload_len);
    out.extend_from_slice(&[0u8; RECORD_HEADER_LEN]);
    write(&mut out);
    debug_assert_eq!(out.len(), RECORD_HEADER_LEN + payload_len);
    let len = (out.len() - RECORD_HEADER_LEN) as u32;
    out[0..4].copy_from_slice(&len.to_le_bytes());
    out[4] = kind as u8;
    let crc = frame_crc(out[4], &out[RECORD_HEADER_LEN..]);
    out[5..9].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Serializes one record frame (header + payload) ready to append.
pub fn encode_record_frame(rec: &Record) -> Vec<u8> {
    encode_frame(rec.kind(), rec.encoded_len(), |out| rec.encode_into(out))
}

/// Serializes the frame of a [`Record::Samples`] record straight from a
/// borrowed batch — byte-identical to `encode_record_frame` of the
/// owned record, without copying the batch into one first.
pub(crate) fn encode_samples_frame(seq: u64, samples: &[f64]) -> Vec<u8> {
    encode_frame(RecordKind::Samples, samples_payload_len(samples.len()), |out| {
        encode_samples_payload(out, seq, samples)
    })
}

/// CRC-32 over a frame's kind byte followed by its payload.
fn frame_crc(kind: u8, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(payload);
    crc.finish()
}

/// The one framing walker every segment reader goes through.
///
/// [`FrameWalker::new`] validates the segment header; iteration then
/// yields `(journal index, kind, payload)` for each frame front to
/// back, with the payload borrowed from the segment bytes. A frame
/// that is truncated, longer than [`MAX_RECORD`], or fails its CRC
/// (computed over the borrowed kind byte and payload, never a copy)
/// ends the walk and marks it torn; so does a frame the caller rejects
/// with [`FrameWalker::reject`]. [`FrameWalker::valid_len`] is then
/// the end of the last accepted frame.
#[derive(Debug)]
pub(crate) struct FrameWalker<'a> {
    bytes: &'a [u8],
    base_index: u64,
    /// End of the last accepted frame.
    pos: usize,
    /// Start of the frame most recently yielded (for `reject`).
    yielded_at: usize,
    next_index: u64,
    torn: bool,
    done: bool,
}

impl<'a> FrameWalker<'a> {
    /// Starts a walk over a whole segment's bytes, or `None` when the
    /// segment header is invalid.
    pub(crate) fn new(bytes: &'a [u8]) -> Option<FrameWalker<'a>> {
        let base_index = decode_segment_header(bytes)?;
        Some(FrameWalker {
            bytes,
            base_index,
            pos: SEGMENT_HEADER_LEN,
            yielded_at: SEGMENT_HEADER_LEN,
            next_index: base_index,
            torn: false,
            done: false,
        })
    }

    /// The header's base index.
    pub(crate) fn base_index(&self) -> u64 {
        self.base_index
    }

    /// Byte offset of the end of the last accepted frame.
    pub(crate) fn valid_len(&self) -> usize {
        self.pos
    }

    /// Whether the walk ended at a damaged or rejected frame rather
    /// than at the end of the bytes.
    pub(crate) fn torn(&self) -> bool {
        self.torn
    }

    /// Rejects the frame just yielded — CRC-valid but undecodable, a
    /// format mismatch treated like corruption — ending the walk before
    /// it. Call it only right after [`Iterator::next`] yielded a frame.
    pub(crate) fn reject(&mut self) {
        debug_assert!(!self.done && self.pos > self.yielded_at, "no frame to reject");
        self.pos = self.yielded_at;
        self.next_index -= 1;
        self.torn = true;
        self.done = true;
    }

    fn stop(&mut self, torn: bool) -> Option<(u64, u8, &'a [u8])> {
        self.torn = torn;
        self.done = true;
        None
    }
}

impl<'a> Iterator for FrameWalker<'a> {
    type Item = (u64, u8, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let rest = &self.bytes[self.pos..];
        if rest.is_empty() {
            return self.stop(false);
        }
        if rest.len() < RECORD_HEADER_LEN {
            return self.stop(true);
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        let kind = rest[4];
        let crc = u32::from_le_bytes(rest[5..9].try_into().unwrap());
        if len > MAX_RECORD || rest.len() - RECORD_HEADER_LEN < len as usize {
            return self.stop(true);
        }
        let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len as usize];
        if frame_crc(kind, payload) != crc {
            return self.stop(true);
        }
        let index = self.next_index;
        self.yielded_at = self.pos;
        self.pos += RECORD_HEADER_LEN + len as usize;
        self.next_index += 1;
        Some((index, kind, payload))
    }
}

/// The outcome of scanning one segment file.
#[derive(Debug)]
pub struct SegmentScan<T = Record> {
    /// The header's base index.
    pub base_index: u64,
    /// Every CRC-valid record, paired with its journal index.
    pub records: Vec<(u64, T)>,
    /// Byte offset of the end of the last valid record — the length the
    /// file must be truncated to if `torn` is set.
    pub valid_len: u64,
    /// Whether a torn or corrupt tail was found past `valid_len`.
    pub torn: bool,
}

/// Scans a segment file, validating the header and every record frame.
/// Returns `None` when the header itself is invalid (the whole file is
/// unusable — a torn header write or foreign file).
///
/// # Errors
///
/// Propagates I/O failures reading the file; corruption is *not* an
/// error, it shortens the valid prefix instead.
pub fn scan_segment(path: &Path) -> io::Result<Option<SegmentScan>> {
    scan_segment_with(path, Record::decode)
}

/// [`scan_segment`] with a caller-chosen payload decoder. A frame
/// whose payload `decode` rejects ends the valid prefix exactly as a
/// CRC failure does, so a decoder that accepts the same payloads as
/// [`Record::decode`] stops at the same record recovery stops at.
///
/// # Errors
///
/// Propagates I/O failures reading the file.
pub(crate) fn scan_segment_with<T, E>(
    path: &Path,
    mut decode: impl FnMut(u8, &[u8]) -> Result<T, E>,
) -> io::Result<Option<SegmentScan<T>>> {
    let bytes = fs::read(path)?;
    let Some(mut frames) = FrameWalker::new(&bytes) else {
        return Ok(None);
    };
    let mut records = Vec::new();
    while let Some((index, kind, payload)) = frames.next() {
        match decode(kind, payload) {
            Ok(rec) => records.push((index, rec)),
            Err(_) => frames.reject(),
        }
    }
    Ok(Some(SegmentScan {
        base_index: frames.base_index(),
        records,
        valid_len: frames.valid_len() as u64,
        torn: frames.torn(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SegmentFooter;
    use std::io::Write;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "emprof-store-seg-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_segment(path: &Path, base: u64, records: &[Record]) {
        let mut f = fs::File::create(path).unwrap();
        f.write_all(&encode_segment_header(base)).unwrap();
        for r in records {
            f.write_all(&encode_record_frame(r)).unwrap();
        }
    }

    fn cursors(n: u64) -> Vec<Record> {
        (1..=n).map(|i| Record::Cursor { acked_events: i }).collect()
    }

    #[test]
    fn file_names_roundtrip() {
        for base in [0u64, 1, 42, u64::MAX] {
            assert_eq!(parse_segment_file_name(&segment_file_name(base)), Some(base));
        }
        assert_eq!(parse_segment_file_name("seg-x.emj"), None);
        assert_eq!(parse_segment_file_name("other.emj"), None);
    }

    #[test]
    fn clean_segment_scans_fully() {
        let dir = tmp_dir("clean");
        let path = dir.join(segment_file_name(5));
        let recs = cursors(4);
        write_segment(&path, 5, &recs);
        let scan = scan_segment(&path).unwrap().expect("valid header");
        assert_eq!(scan.base_index, 5);
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.records[0].0, 5);
        assert_eq!(scan.records[3].0, 8);
        assert_eq!(scan.valid_len, fs::metadata(&path).unwrap().len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_ends_prefix() {
        let dir = tmp_dir("trunc");
        let path = dir.join(segment_file_name(0));
        write_segment(&path, 0, &cursors(3));
        let full = fs::metadata(&path).unwrap().len();
        // Chop mid-way through the last record.
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);
        let scan = scan_segment(&path).unwrap().unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 2);
        assert!(scan.valid_len < full - 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_ends_prefix() {
        let dir = tmp_dir("corrupt");
        let path = dir.join(segment_file_name(0));
        write_segment(&path, 0, &cursors(3));
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of the second record.
        let second_payload = SEGMENT_HEADER_LEN + (RECORD_HEADER_LEN + 8) + RECORD_HEADER_LEN + 3;
        bytes[second_payload] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path).unwrap().unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 1, "only the first record survives");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_header_rejects_whole_file() {
        let dir = tmp_dir("badhdr");
        let path = dir.join(segment_file_name(0));
        write_segment(&path, 0, &cursors(2));
        let mut bytes = fs::read(&path).unwrap();
        bytes[13] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(scan_segment(&path).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn footer_is_an_ordinary_record_to_the_scanner() {
        let dir = tmp_dir("footer");
        let path = dir.join(segment_file_name(3));
        let mut recs = cursors(4);
        let mut footer = SegmentFooter::empty();
        for r in &recs {
            footer.note(r);
        }
        recs.push(Record::Footer(footer));
        write_segment(&path, 3, &recs);
        let scan = scan_segment(&path).unwrap().unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.records.last().unwrap(), &(7, Record::Footer(footer)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_length_field_is_corruption() {
        let dir = tmp_dir("oversz");
        let path = dir.join(segment_file_name(0));
        write_segment(&path, 0, &cursors(2));
        let mut bytes = fs::read(&path).unwrap();
        bytes[SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + 4]
            .copy_from_slice(&(MAX_RECORD + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let scan = scan_segment(&path).unwrap().unwrap();
        assert!(scan.torn);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, SEGMENT_HEADER_LEN as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn samples_frame_from_slice_matches_owned_record() {
        for n in [0usize, 1, 7, 2500] {
            let samples: Vec<f64> = (0..n).map(|i| i as f64 * -0.75).collect();
            assert_eq!(
                encode_samples_frame(9, &samples),
                encode_record_frame(&Record::Samples { seq: 9, samples })
            );
        }
    }

    #[test]
    fn frame_crc_covers_kind_and_payload() {
        let frame = encode_record_frame(&Record::Cursor { acked_events: 3 });
        let crc = u32::from_le_bytes(frame[5..9].try_into().unwrap());
        let mut crc_input = vec![frame[4]];
        crc_input.extend_from_slice(&frame[RECORD_HEADER_LEN..]);
        assert_eq!(crc, crc32(&crc_input));
    }

    #[test]
    fn rejected_frame_ends_the_walk_before_it() {
        let mut bytes = encode_segment_header(10).to_vec();
        for r in cursors(3) {
            bytes.extend_from_slice(&encode_record_frame(&r));
        }
        let first_end = SEGMENT_HEADER_LEN + RECORD_HEADER_LEN + 8;
        let mut frames = FrameWalker::new(&bytes).unwrap();
        assert_eq!(frames.base_index(), 10);
        assert_eq!(frames.next().map(|f| f.0), Some(10));
        assert_eq!(frames.next().map(|f| f.0), Some(11));
        frames.reject();
        assert!(frames.torn());
        assert_eq!(frames.valid_len(), first_end);
        assert_eq!(frames.next(), None);
        // Walked to the end, the same bytes are clean.
        let mut frames = FrameWalker::new(&bytes).unwrap();
        assert_eq!(frames.by_ref().count(), 3);
        assert!(!frames.torn());
        assert_eq!(frames.valid_len(), bytes.len());
    }

    #[test]
    fn undecodable_payload_ends_the_scan() {
        let dir = tmp_dir("undecodable");
        let path = dir.join(segment_file_name(0));
        write_segment(&path, 0, &cursors(1));
        let good_len = fs::metadata(&path).unwrap().len();
        // A CRC-valid SAMPLES frame whose count field promises one
        // sample more than the payload holds, then a valid record.
        let mut frame = encode_samples_frame(1, &[0.5, 1.5]);
        let payload = RECORD_HEADER_LEN;
        frame[payload + 8..payload + 12].copy_from_slice(&3u32.to_le_bytes());
        let crc = frame_crc(frame[4], &frame[payload..]);
        frame[5..9].copy_from_slice(&crc.to_le_bytes());
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame).unwrap();
        f.write_all(&encode_record_frame(&Record::Cursor { acked_events: 2 }))
            .unwrap();
        drop(f);
        let scan = scan_segment(&path).unwrap().unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, good_len);
        fs::remove_dir_all(&dir).unwrap();
    }
}
