//! The one byte codec: every byte the system sends or persists — wire
//! frames, log records, snapshots, conformal states, model weights — is
//! written by [`Writer`] and read back by [`Reader`], and every file it
//! persists is one [`seal`]ed shell published by [`write_atomic`].
//!
//! Integers are little-endian and floats travel as their IEEE-754 bit
//! patterns, so every value survives bit-exactly. The reader is
//! bounds-checked end to end: a field past the end of the input is
//! [`CodecError::Truncated`], never a panic, and nothing is sized from a
//! count before that count is bounded by the bytes present
//! ([`Reader::counted`], [`Reader::f32s`]).
//!
//! A sealed file is
//!
//! ```text
//! +-------+-------------+-----------------+-----------+---------+
//! | magic | version u32 | payload_len u64 | crc32 u32 | payload |
//! +-------+-------------+-----------------+-----------+---------+
//! ```
//!
//! with the CRC over the payload only: model weights (`EVHT`), durable
//! snapshots (`EVSN`) and conformal states (`EVCS`).
//!
//! ```
//! use eventhit_core::codec::{seal, unseal, Reader};
//!
//! let file = seal(b"DEMO", 1, |w| {
//!     w.u32(7);
//!     w.f32s(&[0.5, -1.0]);
//! });
//! let mut r = Reader::new(unseal(&file, b"DEMO", 1).unwrap());
//! assert_eq!(r.u32(), Ok(7));
//! let floats: Vec<f32> = r.f32s(2).unwrap().iter().collect();
//! assert_eq!(floats, [0.5, -1.0]);
//! assert!(r.finish().is_ok());
//! ```

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// Why bytes did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the field being read.
    Truncated {
        /// Bytes the field still needed.
        needed: usize,
    },
    /// Bytes were left over after the last field.
    Trailing {
        /// How many.
        extra: usize,
    },
    /// A field holds a value outside its domain.
    Invalid(&'static str),
    /// A string field is not UTF-8.
    BadUtf8,
    /// A sealed file carries this version, not the one asked for.
    Version(u32),
    /// A sealed payload does not hash to the CRC-32 its header records.
    Checksum {
        /// The CRC-32 in the header.
        expected: u32,
        /// The CRC-32 of the payload present.
        got: u32,
    },
}

impl CodecError {
    /// The error in words, for a format that reports a fixed message.
    pub fn what(&self) -> &'static str {
        match self {
            CodecError::Truncated { .. } => "truncated: the bytes end inside a field",
            CodecError::Trailing { .. } => "trailing bytes after the last field",
            CodecError::Invalid(what) => what,
            CodecError::BadUtf8 => "string field is not UTF-8",
            CodecError::Version(_) => "unsupported version",
            CodecError::Checksum { .. } => "payload does not match its checksum",
        }
    }
}

/// The little-endian writer: appends fields to a byte buffer.
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// A writer appending to `buf`.
    #[inline]
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Writer { buf }
    }

    /// Raw bytes, as they are.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f32`, as its bit pattern.
    #[inline]
    pub fn f32(&mut self, v: f32) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f64`, as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A count of items: a `u32` in every format.
    #[inline]
    pub fn count(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// A run of floats, with no count (the caller writes one if the
    /// format has it).
    #[inline]
    pub fn f32s(&mut self, run: &[f32]) {
        self.buf.reserve(run.len() * 4);
        for &v in run {
            self.f32(v);
        }
    }

    /// A string: its byte count, then its UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.bytes(s.as_bytes());
    }

    /// Fills in the `u32` at `at`, written earlier as a placeholder — how
    /// a length or checksum covering later bytes is written.
    #[inline]
    pub fn set_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// [`Writer::set_u32`] for a `u64`.
    pub fn set_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// The bounds-checked little-endian reader over a byte slice. Every read
/// either returns the field and moves past it, or fails and moves nothing.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes, borrowed.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let Some((head, rest)) = self.rest.split_at_checked(n) else {
            let needed = n - self.rest.len();
            return Err(CodecError::Truncated { needed });
        };
        self.rest = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut field = [0; N];
        field.copy_from_slice(self.take(N)?);
        Ok(field)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// A `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f32`, bit-exact.
    pub fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// An `f64`, bit-exact.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A run of `n` floats, bounds-checked whole and left where it lies:
    /// a count that lies about the input costs nothing.
    #[inline]
    pub fn f32s(&mut self, n: usize) -> Result<F32Run<'a>, CodecError> {
        let bytes = n
            .checked_mul(4)
            .ok_or(CodecError::Invalid("float run length overflows"))?;
        Ok(F32Run(self.take(bytes)?))
    }

    /// A `u32` count, then that many items read by `item`. The count sizes
    /// nothing on its own: the vector starts with at most one item per
    /// byte left and at most 64 KiB, and grows only as items actually
    /// decode.
    pub fn counted<T, E: From<CodecError>>(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.u32()? as usize;
        self.items(n, item)
    }

    /// `n` items read by `item`, for a format that read their count itself;
    /// reserved as [`Reader::counted`] reserves.
    pub fn items<T, E: From<CodecError>>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        // An item can be several times wider in memory than on the wire, so
        // the bytes left alone do not bound the reservation; the cap does,
        // while an honest short list still starts at its exact size.
        const MAX_RESERVE: usize = 64 * 1024;
        let most = MAX_RESERVE / size_of::<T>().max(1);
        let mut items = Vec::with_capacity(n.min(self.rest.len()).min(most));
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// A string written by [`Writer::str`], borrowed.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::BadUtf8)
    }

    /// Ends the read: every byte must have been consumed.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        match self.rest.len() {
            0 => Ok(()),
            extra => Err(CodecError::Trailing { extra }),
        }
    }
}

/// A run of `f32`s still in wire form (little-endian, unaligned), borrowed
/// from the bytes that carried it.
#[derive(Debug, Clone, Copy)]
pub struct F32Run<'a>(&'a [u8]);

impl<'a> F32Run<'a> {
    /// Number of floats in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len() / 4
    }

    /// True iff the run holds no float.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The floats, in order, bit-exact.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = f32> + 'a {
        let (floats, _) = self.0.as_chunks::<4>();
        floats.iter().map(|&bits| f32::from_le_bytes(bits))
    }

    /// The run cut into consecutive rows of `dim` floats.
    #[inline]
    pub fn rows(self, dim: usize) -> impl Iterator<Item = F32Run<'a>> + 'a {
        self.0.chunks_exact(dim * 4).map(F32Run)
    }
}

/// The reflected CRC-32 lookup table for polynomial `0xEDB88320`
/// (IEEE 802.3), built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFFFFFF`): the checksum
/// of log records and sealed files. It detects accidental bit damage in
/// data at rest; identity is FNV-1a's job (`eventhit_telemetry::fnv1a`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Bytes of a sealed file before its payload: magic, version, length,
/// checksum. A checksum failure reports this as its offset.
pub const SEALED_HEADER_BYTES: usize = 20;

/// A sealed file holding the payload `fill` writes, built in one buffer.
pub fn seal(magic: &[u8; 4], version: u32, fill: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut file = Vec::new();
    let mut w = Writer::new(&mut file);
    w.bytes(magic);
    w.u32(version);
    // Length and checksum, once the payload is there.
    w.bytes(&[0; 12]);
    fill(&mut w);
    let payload = &file[SEALED_HEADER_BYTES..];
    let (len, crc) = (payload.len() as u64, crc32(payload));
    let mut w = Writer::new(&mut file);
    w.set_u64(8, len);
    w.set_u32(16, crc);
    file
}

/// The payload of a sealed file, once its magic, version, length and
/// checksum all hold. A file of another version is
/// [`CodecError::Version`], so a reader can fall back to an older layout.
pub fn unseal<'a>(file: &'a [u8], magic: &[u8; 4], version: u32) -> Result<&'a [u8], CodecError> {
    let mut r = Reader::new(file);
    if r.take(4)? != magic {
        return Err(CodecError::Invalid("bad magic"));
    }
    match r.u32()? {
        found if found == version => {}
        found => return Err(CodecError::Version(found)),
    }
    let len = r.u64()?;
    let expected = r.u32()?;
    let payload = r.take(usize::try_from(len).unwrap_or(usize::MAX))?;
    r.finish()?;
    let got = crc32(payload);
    if got != expected {
        return Err(CodecError::Checksum { expected, got });
    }
    Ok(payload)
}

/// Publishes `bytes` at `path` so that a crash leaves the old file or the
/// new one, never a mix, and a published file stays published: the bytes
/// go to `<path>.tmp` and are synced, the temp file is renamed over
/// `path`, and the directory entry is synced.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_values() {
        // The canonical CRC-32/IEEE check value plus a few spot checks.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn fields_round_trip_and_a_failed_read_moves_nothing() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(u32::MAX);
        w.u64(1 << 40);
        w.f32(-0.0);
        w.f64(f64::MIN_POSITIVE);
        w.str("héllo");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(u32::MAX));
        assert_eq!(r.u64(), Ok(1 << 40));
        assert_eq!(r.f32().map(f32::to_bits), Ok((-0.0f32).to_bits()));
        assert_eq!(r.f64(), Ok(f64::MIN_POSITIVE));
        assert_eq!(r.remaining(), 4 + "héllo".len());
        let mut short = Reader::new(&buf[buf.len() - 3..]);
        assert_eq!(short.u64(), Err(CodecError::Truncated { needed: 5 }));
        assert_eq!(short.remaining(), 3, "a failed read consumes nothing");
        assert_eq!(r.str(), Ok("héllo"));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(
            Reader::new(&[0xFF, 0xFE]).finish(),
            Err(CodecError::Trailing { extra: 2 })
        );
    }

    #[test]
    fn a_lying_count_sizes_nothing_beyond_the_bytes_present() {
        // u32::MAX items announced, three bytes of them present.
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3];
        let mut r = Reader::new(&bytes);
        let mut seen = 0;
        let err = r
            .counted(|r| {
                seen += 1;
                r.u8()
            })
            .unwrap_err();
        assert_eq!((err, seen), (CodecError::Truncated { needed: 1 }, 4));
        assert_eq!(
            Reader::new(&[0; 7]).f32s(usize::MAX).err(),
            Some(CodecError::Invalid("float run length overflows"))
        );
    }

    #[test]
    fn a_sealed_file_checks_magic_version_length_and_checksum() {
        let file = seal(b"TEST", 3, |w| w.bytes(b"payload"));
        assert_eq!(file.len(), SEALED_HEADER_BYTES + 7);
        assert_eq!(unseal(&file, b"TEST", 3), Ok(&b"payload"[..]));
        assert_eq!(
            unseal(&file, b"NOPE", 3),
            Err(CodecError::Invalid("bad magic"))
        );
        assert_eq!(unseal(&file, b"TEST", 4), Err(CodecError::Version(3)));
        let cut = &file[..file.len() - 1];
        assert_eq!(
            unseal(cut, b"TEST", 3),
            Err(CodecError::Truncated { needed: 1 })
        );
        let mut longer = file.clone();
        longer.push(0);
        assert_eq!(
            unseal(&longer, b"TEST", 3),
            Err(CodecError::Trailing { extra: 1 })
        );
        let mut damaged = file.clone();
        *damaged.last_mut().unwrap() ^= 1;
        assert!(matches!(
            unseal(&damaged, b"TEST", 3),
            Err(CodecError::Checksum { .. })
        ));
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temp_behind() {
        let dir = std::env::temp_dir().join(format!("codec-atomic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
