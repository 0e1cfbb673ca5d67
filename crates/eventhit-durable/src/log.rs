//! Append-only record framing for the session event log.
//!
//! Each record is `[payload_len: u32 LE][crc32: u32 LE][payload]`, where
//! the CRC covers the payload bytes only. The framing distinguishes two
//! failure modes with very different recovery semantics:
//!
//! - **Torn tail** — the file ends mid-record (header shorter than 8
//!   bytes, or fewer payload bytes than the header declares). This is the
//!   *expected* artifact of a crash during a log write and is recoverable:
//!   every record before the tear is intact, and the tear is truncated
//!   away on reopen. Note a pure truncation can *only* produce a torn
//!   tail, never a checksum failure — the CRC is read from the header,
//!   and a truncated header leaves fewer than 8 bytes.
//! - **Corrupt record** — a record whose payload is fully present but
//!   hashes to a different CRC. That is bit damage (disk fault, manual
//!   edit), not a torn append, and recovery refuses to proceed past it.

use crate::{DurableError, DurableResult};
use eventhit_core::codec::{crc32, Reader, Writer};

/// Upper bound on a single record's payload (64 MiB). A length field
/// beyond this is treated as structural corruption rather than an
/// instruction to allocate.
pub const MAX_RECORD_BYTES: u32 = 1 << 26;

/// Frames one record at the end of `buf`: reserves the header, lets
/// `fill` append the payload, then patches the length and CRC in. The
/// write path frames a whole batch into one reusable buffer this way, so
/// an event is encoded exactly once and never copied again. A payload
/// beyond [`MAX_RECORD_BYTES`] is an error and leaves `buf` as it was.
pub fn frame_into(buf: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> DurableResult<()> {
    let start = buf.len();
    // Length and checksum, once the payload is there.
    buf.extend_from_slice(&[0u8; 8]);
    fill(buf);
    let payload = &buf[start + 8..];
    let Some(len) = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_RECORD_BYTES)
    else {
        buf.truncate(start);
        return Err(DurableError::Format(
            "record payload exceeds MAX_RECORD_BYTES",
        ));
    };
    let crc = crc32(payload);
    let mut w = Writer::new(buf);
    w.set_u32(start, len);
    w.set_u32(start + 4, crc);
    Ok(())
}

/// Frames one payload as a log record: `[len][crc32][payload]`. Panics on
/// a payload beyond [`MAX_RECORD_BYTES`]; the store's write path uses
/// [`frame_into`], which returns the error instead.
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(8 + payload.len());
    frame_into(&mut rec, |buf| buf.extend_from_slice(payload))
        .expect("record payload exceeds MAX_RECORD_BYTES");
    rec
}

/// How a scanned log ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// The final record is complete; the log ends on a record boundary.
    Clean,
    /// The file ends mid-record. `valid_bytes` in the [`Scan`] marks the
    /// last committed boundary; everything after it should be truncated.
    Torn,
}

/// The result of scanning a log image: the committed payloads (borrowed
/// from the image — a scan copies nothing), the byte offset of the last
/// record boundary, and how the image ends.
#[derive(Debug)]
pub struct Scan<'a> {
    /// Payloads of every fully-committed record, in append order.
    pub payloads: Vec<&'a [u8]>,
    /// Bytes of the image covered by committed records; also the offset
    /// to truncate to when the tail is torn.
    pub valid_bytes: u64,
    /// Whether the image ends cleanly or mid-record.
    pub tail: Tail,
}

/// Scans a log image, validating every record's checksum.
///
/// Returns [`DurableError::Corrupt`] only for a *fully present* record
/// whose CRC does not match — a tear (truncated header or payload) is
/// reported through [`Tail::Torn`], never as an error.
pub fn scan(bytes: &[u8]) -> DurableResult<Scan<'_>> {
    let mut payloads = Vec::new();
    let mut rest = Reader::new(bytes);
    let tail = loop {
        if rest.remaining() == 0 {
            break Tail::Clean;
        }
        let offset = (bytes.len() - rest.remaining()) as u64;
        let mut record = rest;
        // A header or payload cut short is a torn tail, not an error.
        let (Ok(len), Ok(expected)) = (record.u32(), record.u32()) else {
            break Tail::Torn;
        };
        if len > MAX_RECORD_BYTES {
            return Err(DurableError::Format(
                "record length exceeds MAX_RECORD_BYTES",
            ));
        }
        let Ok(payload) = record.take(len as usize) else {
            break Tail::Torn;
        };
        if crc32(payload) != expected {
            return Err(DurableError::Corrupt { offset });
        }
        payloads.push(payload);
        rest = record;
    };
    Ok(Scan {
        payloads,
        valid_bytes: (bytes.len() - rest.remaining()) as u64,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for p in payloads {
            bytes.extend_from_slice(&frame_record(p));
        }
        bytes
    }

    #[test]
    fn round_trips_multiple_records() {
        let image = log_of(&[b"alpha", b"", b"gamma-gamma"]);
        let scan = scan(&image).unwrap();
        assert_eq!(scan.tail, Tail::Clean);
        assert_eq!(scan.valid_bytes, image.len() as u64);
        let expected: [&[u8]; 3] = [b"alpha", b"", b"gamma-gamma"];
        assert_eq!(scan.payloads, expected);
    }

    #[test]
    fn empty_log_is_clean() {
        let scan = scan(&[]).unwrap();
        assert_eq!(scan.tail, Tail::Clean);
        assert_eq!(scan.valid_bytes, 0);
        assert!(scan.payloads.is_empty());
    }

    #[test]
    fn truncation_anywhere_in_final_record_is_torn_not_corrupt() {
        let image = log_of(&[b"first", b"second-record"]);
        let boundary = frame_record(b"first").len();
        // Cutting exactly at the boundary is a clean one-record log.
        let at_boundary = scan(&image[..boundary]).unwrap();
        assert_eq!(at_boundary.tail, Tail::Clean);
        assert_eq!(at_boundary.payloads, [b"first"]);
        for cut in boundary + 1..image.len() {
            let scan = scan(&image[..cut]).unwrap();
            assert_eq!(scan.tail, Tail::Torn, "cut at {cut}");
            assert_eq!(scan.valid_bytes, boundary as u64, "cut at {cut}");
            assert_eq!(scan.payloads, [b"first"], "cut at {cut}");
        }
    }

    #[test]
    fn bit_damage_is_corrupt_with_offset() {
        let mut image = log_of(&[b"first", b"second"]);
        let boundary = frame_record(b"first").len();
        let last = image.len() - 1; // inside the second payload
        image[last] ^= 0x01;
        match scan(&image) {
            Err(DurableError::Corrupt { offset }) => assert_eq!(offset, boundary as u64),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn frame_into_appends_records_and_matches_frame_record() {
        let mut buf = Vec::new();
        frame_into(&mut buf, |b| b.extend_from_slice(b"alpha")).unwrap();
        frame_into(&mut buf, |b| b.extend_from_slice(b"beta")).unwrap();
        assert_eq!(buf, log_of(&[b"alpha", b"beta"]));
    }

    #[test]
    fn oversized_payload_is_an_error_and_leaves_the_buffer_alone() {
        let mut buf = frame_record(b"kept");
        let before = buf.clone();
        let err = frame_into(&mut buf, |b| {
            b.resize(b.len() + MAX_RECORD_BYTES as usize + 1, 0)
        });
        assert!(matches!(err, Err(DurableError::Format(_))));
        assert_eq!(buf, before);
    }

    #[test]
    fn absurd_length_field_is_a_format_error() {
        let mut image = Vec::new();
        image.extend_from_slice(&(MAX_RECORD_BYTES + 1).to_le_bytes());
        image.extend_from_slice(&[0u8; 4]);
        assert!(matches!(scan(&image), Err(DurableError::Format(_))));
    }
}
