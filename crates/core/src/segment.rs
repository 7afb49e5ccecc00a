//! Segment file format for the write-ahead log.
//!
//! A WAL is a sequence of **segment files**, each an append-only byte
//! stream:
//!
//! ```text
//! segment  := header record*
//! header   := magic("UBWALSEG") version(u32 LE)          ; 12 bytes
//! record   := len(u32 LE) crc32(u32 LE) payload[len]     ; crc over payload
//! payload  := seq(u64) watermark(u64) source(u32)
//!             campaign_len(u16) campaign[..]
//!             counter_len(u16) counter_label[..]
//!             n(u32) ts[n](u64 each) vs[n](u64 each)     ; all LE
//! ```
//!
//! Counters are serialized through their stable CSV label
//! ([`crate::store::counter_label`]), so the on-disk format shares the CSV
//! dump's compatibility story. The CRC32 (IEEE/zlib polynomial, in-repo —
//! the workspace stays dependency-free) covers the payload only; the
//! length field is implicitly validated by the CRC because a corrupted
//! length either overruns the segment (torn tail) or frames bytes whose
//! CRC cannot match.
//!
//! [`scan_segment`] is the recovery primitive: it walks a segment from the
//! front and stops at the first frame that is incomplete, fails its CRC,
//! or does not decode — everything before that point is returned as clean
//! records, everything after is a **torn tail** for the caller to truncate.
//! An append-only file can only be damaged at its end (a torn write at
//! crash), so stopping at the first bad frame never abandons good data.

use std::borrow::Borrow;

use crate::batch::{Batch, SourceId};
use crate::series::Series;
use crate::ship::SeqBatch;
use crate::store::{label_parts, parse_counter_label};
use uburst_asic::CounterId;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"UBWALSEG";
/// On-disk format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Bytes of the segment header (magic + version).
pub const SEGMENT_HEADER_LEN: usize = 12;
/// Bytes of a record frame before its payload (length + CRC).
pub const FRAME_OVERHEAD: usize = 8;

/// CRC32 (IEEE 802.3 / zlib, reflected, polynomial 0xEDB88320).
///
/// Slicing-by-8: eight derived tables fold one aligned 8-byte lane per
/// step instead of one byte, so record-sized payloads checksum at a few
/// bytes per cycle rather than a few cycles per byte. `TABLES[0]` is the
/// classic byte-at-a-time table (used for the unaligned tail), and each
/// `TABLES[k]` advances a byte's contribution `k` further positions, so
/// the eight XORed lookups are algebraically the same polynomial division
/// the scalar loop performs — same function, same values, pinned by the
/// reference-vector test below.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        t
    };
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The 12-byte header opening every segment.
pub fn segment_header() -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[..8].copy_from_slice(&SEGMENT_MAGIC);
    h[8..].copy_from_slice(&SEGMENT_VERSION.to_le_bytes());
    h
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    // A wrapped length would frame a record — and strand every acked
    // record after it — that recovery cannot decode.
    let len = u16::try_from(s.len()).expect("string field longer than its u16 length prefix");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// The longest label: `rx_size_hist[65535:255]`.
const LABEL_MAX: usize = 23;

/// The decimal digits of `v` (what `format!("{v}")` emits), for `v` up to
/// a `u16`, written at the back of `digits`.
fn dec(mut v: u32, digits: &mut [u8; 5]) -> &[u8] {
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return &digits[at..];
        }
    }
}

/// The counter's label — the bytes of `counter_label(c)`, from the same
/// [`label_parts`] row — rendered on the stack, since the encoder writes
/// one and the decoder checks one per record.
fn label_bytes(c: CounterId) -> ([u8; LABEL_MAX], usize) {
    let mut buf = [0u8; LABEL_MAX];
    let mut n = 0;
    let mut put = |bytes: &[u8]| {
        buf[n..n + bytes.len()].copy_from_slice(bytes);
        n += bytes.len();
    };
    let (prefix, port, bin) = label_parts(c);
    put(prefix.as_bytes());
    if let Some(p) = port {
        put(b"[");
        put(dec(p as u32, &mut [0; 5]));
        if let Some(b) = bin {
            put(b":");
            put(dec(b as u32, &mut [0; 5]));
        }
        put(b"]");
    }
    (buf, n)
}

/// Appends the length-prefixed counter label.
fn put_counter_label(out: &mut Vec<u8>, c: CounterId) {
    let (label, len) = label_bytes(c);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&label[..len]);
}

/// Serializes one sequenced batch's record payload onto the end of `out`.
fn encode_record_into<B: Borrow<Batch>>(sb: &SeqBatch<B>, out: &mut Vec<u8>) {
    let batch = sb.payload();
    let n = batch.samples.len();
    out.extend_from_slice(&sb.seq.to_le_bytes());
    out.extend_from_slice(&sb.watermark.to_le_bytes());
    out.extend_from_slice(&batch.source.0.to_le_bytes());
    put_str(out, &batch.campaign);
    put_counter_label(out, batch.counter);
    out.extend_from_slice(&(n as u32).to_le_bytes());
    for &t in &batch.samples.ts {
        out.extend_from_slice(&t.to_le_bytes());
    }
    for &v in &batch.samples.vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends the complete framed record for `sb` — length, CRC, payload —
/// onto `out` without intermediate allocations. The length and CRC are
/// patched in after the payload is encoded in place, so the group-commit
/// WAL path encodes a whole window into one buffer. The bytes depend only
/// on the batch, not on whether `sb` owns it or shares it.
pub fn frame_record_into<B: Borrow<Batch>>(sb: &SeqBatch<B>, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_OVERHEAD]);
    encode_record_into(sb, out);
    let payload_len = out.len() - start - FRAME_OVERHEAD;
    let crc = crc32(&out[start + FRAME_OVERHEAD..]);
    out[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    out.len() - start
}

/// A little-endian cursor over a record payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn str(&mut self) -> Option<&'a str> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }
}

/// Deserializes a record payload back into a sequenced batch. `None` means
/// the payload does not parse (wrong version / corruption the CRC cannot
/// see, e.g. a bug writing the record) — recovery treats it like a tear.
pub fn decode_record(payload: &[u8]) -> Option<SeqBatch> {
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
    };
    let seq = c.u64()?;
    let watermark = c.u64()?;
    // A shipper stamps `watermark > seq` on everything it sends; holding the
    // log to it also keeps `seq + 1` in range for the ledger behind it.
    if watermark <= seq {
        return None;
    }
    let source = SourceId(c.u32()?);
    let campaign: std::sync::Arc<str> = c.str()?.into();
    let label = c.str()?;
    let counter = parse_counter_label(label)?;
    // The parser also takes the CSV dump's older spellings; the log holds
    // only the one this writer emits, so a record re-frames to its bytes.
    let (canonical, len) = label_bytes(counter);
    if label.as_bytes() != &canonical[..len] {
        return None;
    }
    let n = c.u32()? as usize;
    // `n` is a number read off a disk (a CRC is not a MAC): allocate only
    // once the rest of the payload is known to be exactly `n` timestamps
    // and `n` values — no truncation, no trailing garbage.
    if n.checked_mul(16) != Some(payload.len() - c.pos) {
        return None;
    }
    let mut ts = Vec::with_capacity(n);
    for _ in 0..n {
        ts.push(c.u64()?);
    }
    let mut vs = Vec::with_capacity(n);
    for _ in 0..n {
        vs.push(c.u64()?);
    }
    Some(SeqBatch {
        seq,
        watermark,
        batch: Batch {
            source,
            campaign,
            counter,
            samples: Series { ts, vs },
        },
    })
}

/// Why a scan stopped before the end of the segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TearReason {
    /// The segment is shorter than its header, or the magic/version do not
    /// match (a crash mid-header, or not a segment file at all).
    BadHeader,
    /// The last frame's declared payload extends past the end of the file
    /// (a write torn mid-record).
    Truncated,
    /// A complete frame whose payload fails its CRC.
    CrcMismatch,
    /// CRC-valid payload that does not decode (format drift or a writer
    /// bug; never produced by a torn write).
    Undecodable,
}

/// A detected torn tail: everything from `offset` on is damaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset (from segment start) where the damage begins — the
    /// length recovery should truncate the segment to.
    pub offset: usize,
    /// What the damage looked like.
    pub reason: TearReason,
}

/// The result of scanning one segment.
#[derive(Debug)]
pub struct SegmentScan {
    /// Records recovered, in append order.
    pub records: Vec<SeqBatch>,
    /// Bytes of clean data (header + whole valid records).
    pub clean_len: usize,
    /// The torn tail, if the segment does not end cleanly.
    pub torn: Option<TornTail>,
}

/// Walks a segment image from the front, returning every clean record and
/// the tear point, if any (see module docs for why first-tear-stops is
/// sound for append-only files).
pub fn scan_segment(bytes: &[u8]) -> SegmentScan {
    if bytes.is_empty() {
        // A zero-length segment is *clean*: a crash tore its header before
        // any byte (or a prior recovery truncated exactly that damage
        // away). Reporting it torn would make recovery non-idempotent.
        return SegmentScan {
            records: Vec::new(),
            clean_len: 0,
            torn: None,
        };
    }
    if bytes.len() < SEGMENT_HEADER_LEN || bytes[..SEGMENT_HEADER_LEN] != segment_header() {
        return SegmentScan {
            records: Vec::new(),
            clean_len: 0,
            torn: Some(TornTail {
                offset: 0,
                reason: TearReason::BadHeader,
            }),
        };
    }
    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER_LEN;
    loop {
        if pos == bytes.len() {
            return SegmentScan {
                records,
                clean_len: pos,
                torn: None,
            };
        }
        let tear = |reason| {
            Some(TornTail {
                offset: pos,
                reason,
            })
        };
        if bytes.len() - pos < FRAME_OVERHEAD {
            return SegmentScan {
                records,
                clean_len: pos,
                torn: tear(TearReason::Truncated),
            };
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let start = pos + FRAME_OVERHEAD;
        let Some(end) = start.checked_add(len).filter(|&e| e <= bytes.len()) else {
            return SegmentScan {
                records,
                clean_len: pos,
                torn: tear(TearReason::Truncated),
            };
        };
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            return SegmentScan {
                records,
                clean_len: pos,
                torn: tear(TearReason::CrcMismatch),
            };
        }
        let Some(record) = decode_record(payload) else {
            return SegmentScan {
                records,
                clean_len: pos,
                torn: tear(TearReason::Undecodable),
            };
        };
        records.push(record);
        pos = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uburst_asic::CounterId;
    use uburst_sim::node::PortId;
    use uburst_sim::time::Nanos;

    fn seq_batch(seq: u64, source: u32, pts: &[(u64, u64)]) -> SeqBatch {
        let mut s = Series::new();
        for &(t, v) in pts {
            s.push(Nanos(t), v);
        }
        SeqBatch {
            seq,
            watermark: seq + 1,
            batch: Batch {
                source: SourceId(source),
                campaign: "camp".into(),
                counter: CounterId::RxSizeHist(PortId(3), 5),
                samples: s,
            },
        }
    }

    /// Reference framing: a length + CRC header built around a finished
    /// payload, the layout [`frame_record_into`] patches in place.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    fn encode_record(sb: &SeqBatch) -> Vec<u8> {
        let mut out = Vec::new();
        encode_record_into(sb, &mut out);
        out
    }

    fn segment_with(records: &[SeqBatch]) -> Vec<u8> {
        let mut bytes = segment_header().to_vec();
        for r in records {
            bytes.extend_from_slice(&frame(&encode_record(r)));
        }
        bytes
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The manual label writer must emit exactly what the `format!`-based
    /// `counter_label` string would have — the on-disk format and the CSV
    /// dump share the label syntax, so drift here is format drift.
    #[test]
    fn put_counter_label_matches_counter_label_strings() {
        use crate::store::counter_label;
        let cases = [
            CounterId::RxBytes(PortId(0)),
            CounterId::RxPackets(PortId(7)),
            CounterId::TxBytes(PortId(10)),
            CounterId::TxPackets(PortId(65535)),
            CounterId::Drops(PortId(123)),
            CounterId::RxSizeHist(PortId(9), 0),
            CounterId::TxSizeHist(PortId(4094), 255),
            CounterId::BufferLevel,
            CounterId::BufferPeak,
        ];
        for c in cases {
            let mut fast = vec![0xEE];
            let mut slow = vec![0xEE];
            put_counter_label(&mut fast, c);
            put_str(&mut slow, &counter_label(c));
            assert_eq!(fast, slow, "{}", counter_label(c));
        }
    }

    /// The sliced kernel must agree with the textbook byte-at-a-time loop
    /// at every length (exercising the 8-byte lanes and every tail size).
    #[test]
    fn crc32_sliced_matches_scalar_at_every_tail_length() {
        fn scalar(bytes: &[u8]) -> u32 {
            let mut c = !0u32;
            for &b in bytes {
                let mut x = (c ^ b as u32) & 0xFF;
                for _ in 0..8 {
                    x = if x & 1 != 0 {
                        0xEDB8_8320 ^ (x >> 1)
                    } else {
                        x >> 1
                    };
                }
                c = x ^ (c >> 8);
            }
            !c
        }
        let mut data = Vec::with_capacity(257);
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..257 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.push((state >> 56) as u8);
        }
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), scalar(&data[..len]), "len={len}");
        }
    }

    #[test]
    fn frame_record_into_matches_allocating_path_byte_for_byte() {
        let records = [
            seq_batch(0, 1, &[]),
            seq_batch(1, 1, &[(10, 1)]),
            seq_batch(7, 3, &[(20, 2), (30, 3), (40, u64::MAX)]),
        ];
        let mut buf = vec![0xAAu8; 5]; // pre-existing bytes must be preserved
        let mut expected = buf.clone();
        for r in &records {
            let start = buf.len();
            let n = frame_record_into(r, &mut buf);
            let reference = frame(&encode_record(r));
            assert_eq!(n, reference.len(), "reported frame length");
            assert_eq!(&buf[start..], &reference[..], "framed bytes");
            expected.extend_from_slice(&reference);
        }
        assert_eq!(buf, expected, "appends compose without clobbering");
    }

    #[test]
    fn record_codec_round_trips() {
        let sb = seq_batch(42, 7, &[(100, 1), (200, 2), (300, 3)]);
        let payload = encode_record(&sb);
        let back = decode_record(&payload).expect("decodes");
        assert_eq!(back.seq, 42);
        assert_eq!(back.watermark, 43);
        assert_eq!(back.batch.source, SourceId(7));
        assert_eq!(&*back.batch.campaign, "camp");
        assert_eq!(back.batch.counter, CounterId::RxSizeHist(PortId(3), 5));
        assert_eq!(back.batch.samples.ts, vec![100, 200, 300]);
        assert_eq!(back.batch.samples.vs, vec![1, 2, 3]);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let payload = encode_record(&seq_batch(0, 0, &[(1, 1)]));
        for cut in 0..payload.len() {
            assert!(decode_record(&payload[..cut]).is_none(), "cut at {cut}");
        }
        let mut extended = payload.clone();
        extended.push(0);
        assert!(decode_record(&extended).is_none());
    }

    /// A CRC-valid record may still lie about its sample count: the
    /// decoder must refuse it before sizing anything by that count.
    #[test]
    fn sample_count_beyond_the_payload_is_undecodable_not_an_allocation() {
        let good = seq_batch(0, 1, &[(10, 1), (20, 2)]);
        let mut payload = encode_record(&good);
        let n_at = payload.len() - 2 * 16 - 4;
        assert_eq!(payload[n_at..n_at + 4], 2u32.to_le_bytes());
        for claimed in [u32::MAX, 3, 1, 0] {
            payload[n_at..n_at + 4].copy_from_slice(&claimed.to_le_bytes());
            let mut bytes = segment_with(std::slice::from_ref(&good));
            bytes.extend_from_slice(&frame(&payload));
            let scan = scan_segment(&bytes);
            assert_eq!(scan.records.len(), 1, "claimed n = {claimed}");
            assert_eq!(scan.torn.unwrap().reason, TearReason::Undecodable);
        }
    }

    #[test]
    #[should_panic(expected = "longer than its u16 length prefix")]
    fn campaign_name_past_the_length_prefix_is_refused() {
        let mut sb = seq_batch(0, 1, &[(10, 1)]);
        sb.batch.campaign = "x".repeat(u16::MAX as usize + 1).into();
        frame_record_into(&sb, &mut Vec::new());
    }

    #[test]
    fn scan_clean_segment() {
        let records = [
            seq_batch(0, 1, &[(10, 1)]),
            seq_batch(1, 1, &[(20, 2), (30, 3)]),
        ];
        let bytes = segment_with(&records);
        let scan = scan_segment(&bytes);
        assert!(scan.torn.is_none());
        assert_eq!(scan.clean_len, bytes.len());
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].batch.samples.vs, vec![2, 3]);
    }

    #[test]
    fn scan_stops_at_torn_tail_for_every_cut_point() {
        let records = [
            seq_batch(0, 1, &[(10, 1)]),
            seq_batch(1, 1, &[(20, 2)]),
            seq_batch(2, 1, &[(30, 3)]),
        ];
        let bytes = segment_with(&records);
        // Record end offsets, scanning forward.
        let full = scan_segment(&bytes);
        assert_eq!(full.records.len(), 3);
        for cut in 0..bytes.len() {
            let scan = scan_segment(&bytes[..cut]);
            if cut == 0 {
                // The empty segment is clean by definition (recovery
                // truncates header tears to exactly this).
                assert!(scan.torn.is_none());
                assert!(scan.records.is_empty());
                continue;
            }
            if cut < SEGMENT_HEADER_LEN {
                assert_eq!(
                    scan.torn,
                    Some(TornTail {
                        offset: 0,
                        reason: TearReason::BadHeader
                    })
                );
                continue;
            }
            // Every recovered record must be a clean prefix.
            assert!(scan.records.len() <= 3);
            for (i, r) in scan.records.iter().enumerate() {
                assert_eq!(r.seq, i as u64);
            }
            // A cut strictly inside a record leaves a torn tail at the last
            // clean boundary.
            if cut < bytes.len() {
                let clean_end = scan.clean_len;
                assert!(clean_end <= cut);
                if clean_end < cut {
                    assert!(scan.torn.is_some(), "cut {cut} left damage undetected");
                }
            }
        }
    }

    #[test]
    fn scan_detects_bit_flip_as_crc_mismatch() {
        let records = [seq_batch(0, 1, &[(10, 1)]), seq_batch(1, 1, &[(20, 2)])];
        let mut bytes = segment_with(&records);
        let n = bytes.len();
        bytes[n - 3] ^= 0x40; // flip a bit inside the last record's payload
        let scan = scan_segment(&bytes);
        assert_eq!(scan.records.len(), 1, "first record survives");
        assert_eq!(scan.torn.unwrap().reason, TearReason::CrcMismatch);
    }

    #[test]
    fn scan_rejects_foreign_file() {
        let scan = scan_segment(b"source,counter,timestamp_ns,value\n");
        assert_eq!(scan.records.len(), 0);
        assert_eq!(scan.torn.unwrap().reason, TearReason::BadHeader);
    }

    #[test]
    fn frame_length_overrun_is_a_tear_not_a_panic() {
        let mut bytes = segment_header().to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 16]);
        let scan = scan_segment(&bytes);
        assert_eq!(scan.records.len(), 0);
        assert_eq!(scan.torn.unwrap().reason, TearReason::Truncated);
    }
}
