//! Length-prefixed, checksummed frames — the unit of on-disk storage.
//!
//! A frame is `[len: u32 LE][kind: u8][crc32: u32 LE][payload: len bytes]`
//! where the CRC-32 (IEEE polynomial, the same one Ethereum tooling and
//! gzip use) covers the kind byte followed by the payload. The header is
//! written before the payload so a writer can stream; the checksum in the
//! header means a reader detects torn or bit-flipped frames before it
//! attempts to decode them.
//!
//! Readers operate under a *committed byte limit* taken from the
//! manifest: bytes past the limit are an uncommitted crash residue and
//! are never read; a frame that crosses the limit, or a file that ends
//! mid-frame, is a [`StoreError::TruncatedFrame`].

use crate::error::StoreError;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Bytes of `[len][kind][crc32]` before each payload.
pub const FRAME_HEADER_BYTES: u64 = 9;

/// Largest payload a frame may declare. Segments hold a handful of
/// blocks; anything past this is a corrupt length field, not data.
pub const MAX_FRAME_PAYLOAD: u32 = 256 * 1024 * 1024;

/// CRC-32 (IEEE, reflected) slicing-by-8 tables, built at compile time.
/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so one step folds 8
/// input bytes with 8 independent lookups instead of a chain of 8.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// Incremental CRC-32 over a kind byte plus payload.
struct Crc32(u32);

impl Crc32 {
    fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
        let mut c = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for b in &mut chunks {
            let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t7[(lo & 0xFF) as usize]
                ^ t6[((lo >> 8) & 0xFF) as usize]
                ^ t5[((lo >> 16) & 0xFF) as usize]
                ^ t4[(lo >> 24) as usize]
                ^ t3[b[4] as usize]
                ^ t2[b[5] as usize]
                ^ t1[b[6] as usize]
                ^ t0[b[7] as usize];
        }
        for &b in chunks.remainder() {
            c = t0[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a kind byte and payload — the frame checksum.
fn frame_crc(kind: u8, payload: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&[kind]);
    c.update(payload);
    c.finish()
}

/// Serialize a frame into `out`. Returns the frame's total encoded size.
pub fn encode_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) -> u64 {
    let start = out.len();
    out.resize(start + FRAME_HEADER_BYTES as usize, 0);
    out.extend_from_slice(payload);
    seal_frame(&mut out[start..], kind)
}

/// Fill in the header of the frame in `frame`: its payload follows
/// [`FRAME_HEADER_BYTES`] reserved bytes, so a payload encoded straight
/// into a buffer is framed where it lies. Returns the frame's total size.
pub fn seal_frame(frame: &mut [u8], kind: u8) -> u64 {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_BYTES as usize);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4] = kind;
    header[5..].copy_from_slice(&frame_crc(kind, payload).to_le_bytes());
    frame.len() as u64
}

/// A decoded frame with its position in the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: u8,
    pub payload: Vec<u8>,
    /// Byte offset of the frame header within the file.
    pub offset: u64,
}

/// A reader's place in a committed stream. Both readers make every
/// check through it, so they report each corruption shape alike.
struct Position {
    path: PathBuf,
    offset: u64,
    /// Committed bytes; reading stops exactly here.
    limit: u64,
}

impl Position {
    fn truncated(&self) -> StoreError {
        StoreError::TruncatedFrame {
            path: self.path.clone(),
            offset: self.offset,
        }
    }

    /// `false` at the committed limit; an error when a header no longer
    /// fits before it.
    fn more(&self) -> Result<bool, StoreError> {
        if self.offset == self.limit {
            return Ok(false);
        }
        if self.offset + FRAME_HEADER_BYTES > self.limit {
            return Err(self.truncated());
        }
        Ok(true)
    }

    /// The payload length in the [`FRAME_HEADER_BYTES`] of `header`,
    /// once it is plausible and the frame ends by the limit.
    fn payload_len(&self, header: &[u8]) -> Result<usize, StoreError> {
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        if len > MAX_FRAME_PAYLOAD {
            return Err(StoreError::Codec {
                path: self.path.clone(),
                detail: format!(
                    "frame at byte {} declares implausible length {len}",
                    self.offset
                ),
            });
        }
        if self.offset + FRAME_HEADER_BYTES + len as u64 > self.limit {
            return Err(self.truncated());
        }
        Ok(len as usize)
    }

    /// Check `payload` against `header`'s CRC and step past the frame.
    /// Returns the frame's kind and offset.
    fn advance(&mut self, header: &[u8], payload: &[u8]) -> Result<(u8, u64), StoreError> {
        let crc = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
        if frame_crc(header[4], payload) != crc {
            return Err(StoreError::ChecksumMismatch {
                path: self.path.clone(),
                offset: self.offset,
            });
        }
        let at = self.offset;
        self.offset += FRAME_HEADER_BYTES + payload.len() as u64;
        Ok((header[4], at))
    }
}

/// Streaming frame reader over any `Read`, bounded by the committed byte
/// count recorded in the manifest.
pub struct FrameReader<R: Read> {
    inner: R,
    at: Position,
}

impl<R: Read> FrameReader<R> {
    /// `limit` is the committed length of the stream: the reader yields
    /// frames until `limit` and treats anything that crosses it as
    /// truncation.
    pub fn new(inner: R, path: &Path, limit: u64) -> FrameReader<R> {
        FrameReader {
            inner,
            at: Position {
                path: path.to_path_buf(),
                offset: 0,
                limit,
            },
        }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> u64 {
        self.at.offset
    }

    fn fill(&mut self, buf: &mut [u8]) -> Result<(), StoreError> {
        let mut read = 0;
        while read < buf.len() {
            match self.inner.read(&mut buf[read..]) {
                Ok(0) => return Err(self.at.truncated()),
                Ok(n) => read += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(StoreError::io("read frame", &self.at.path, e)),
            }
        }
        Ok(())
    }

    /// Read the next frame, or `None` at the committed limit.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, StoreError> {
        if !self.at.more()? {
            return Ok(None);
        }
        let mut header = [0u8; FRAME_HEADER_BYTES as usize];
        self.fill(&mut header)?;
        let mut payload = vec![0u8; self.at.payload_len(&header)?];
        self.fill(&mut payload)?;
        let (kind, offset) = self.at.advance(&header, &payload)?;
        Ok(Some(Frame {
            kind,
            payload,
            offset,
        }))
    }
}

/// A frame whose payload borrows the underlying byte image (an mmap'd
/// segment) instead of owning a copy — the zero-copy twin of [`Frame`].
/// The CRC has already been verified over the borrowed bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSlice<'a> {
    pub kind: u8,
    pub payload: &'a [u8],
    /// Byte offset of the frame header within the file image.
    pub offset: u64,
}

/// Frame reader over an in-memory byte image (an [`crate::mmap::Mmap`]
/// or any `&[u8]`), bounded by the committed byte count exactly like
/// [`FrameReader`] — same `None`-at-limit rule and the same
/// [`StoreError`] variants for every corruption shape, so the two paths
/// are interchangeable. Payloads are borrowed, never copied.
pub struct SliceFrameReader<'a> {
    bytes: &'a [u8],
    at: Position,
}

impl<'a> SliceFrameReader<'a> {
    /// `limit` is the committed length of the stream; it must not exceed
    /// `bytes.len()` (callers stat the file against the manifest first —
    /// a shorter image surfaces as [`StoreError::TruncatedFrame`], never
    /// an out-of-bounds read).
    pub fn new(bytes: &'a [u8], path: &Path, limit: u64) -> SliceFrameReader<'a> {
        SliceFrameReader {
            bytes,
            at: Position {
                path: path.to_path_buf(),
                offset: 0,
                limit: limit.min(bytes.len() as u64),
            },
        }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> u64 {
        self.at.offset
    }

    /// Read the next frame, or `None` at the committed limit.
    pub fn next_frame(&mut self) -> Result<Option<FrameSlice<'a>>, StoreError> {
        if !self.at.more()? {
            return Ok(None);
        }
        let start = (self.at.offset + FRAME_HEADER_BYTES) as usize;
        let Some(header) = self.bytes.get(self.at.offset as usize..start) else {
            return Err(self.at.truncated());
        };
        let end = start + self.at.payload_len(header)?;
        let Some(payload) = self.bytes.get(start..end) else {
            return Err(self.at.truncated());
        };
        let (kind, offset) = self.at.advance(header, payload)?;
        Ok(Some(FrameSlice {
            kind,
            payload,
            offset,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mev_types::seeded::check_seeds;

    fn read_all(bytes: &[u8]) -> Result<Vec<Frame>, StoreError> {
        let mut r = FrameReader::new(bytes, Path::new("test.seg"), bytes.len() as u64);
        let mut out = Vec::new();
        while let Some(f) = r.next_frame()? {
            out.push(f);
        }
        Ok(out)
    }

    /// CRC-32 one bit at a time, with no table: the reference the
    /// sliced kernel must match.
    fn reference_crc(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 — the standard check value.
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xCBF4_3926);
        assert_eq!(reference_crc(b"123456789"), 0xCBF4_3926);
    }

    /// The sliced kernel equals the bitwise reference on buffers of 0 to
    /// 4,096 bytes, at every start offset modulo 8, whole and fed in
    /// random pieces. `CRC_SEED=<seed>` replays one case.
    #[test]
    fn sliced_crc_matches_the_bitwise_reference() {
        check_seeds("CRC_SEED", 0xC8C3_2008, 128, |rng| {
            let len = match rng.below(3) {
                0 => rng.below(17),
                1 => rng.below(257),
                _ => rng.below(4097),
            } as usize;
            let base: Vec<u8> = (0..len + 7).map(|_| rng.next_u64() as u8).collect();
            for start in 0..8 {
                let bytes = &base[start..start + len];
                let want = reference_crc(bytes);
                let mut whole = Crc32::new();
                whole.update(bytes);
                assert_eq!(whole.finish(), want, "{len} bytes at offset {start}");
                let mut pieces = Crc32::new();
                let mut rest = bytes;
                while !rest.is_empty() {
                    let most = if rng.below(2) == 0 {
                        rest.len().min(17)
                    } else {
                        rest.len()
                    };
                    let (head, tail) = rest.split_at(rng.below(most as u64 + 1) as usize);
                    pieces.update(head);
                    rest = tail;
                }
                assert_eq!(
                    pieces.finish(),
                    want,
                    "{len} bytes at offset {start}, split"
                );
            }
        });
    }

    #[test]
    fn round_trip_multiple_frames() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, b"hello");
        encode_frame(&mut buf, 2, b"");
        encode_frame(&mut buf, 2, &[0xAB; 1000]);
        let frames = read_all(&buf).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].kind, 1);
        assert_eq!(frames[0].payload, b"hello");
        assert_eq!(frames[1].payload, b"");
        assert_eq!(frames[2].payload, vec![0xAB; 1000]);
        assert_eq!(frames[1].offset, FRAME_HEADER_BYTES + 5);
    }

    #[test]
    fn corrupted_payload_is_checksum_error() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, b"payload-bytes");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        match read_all(&buf) {
            Err(StoreError::ChecksumMismatch { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_tail_is_detected() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, b"first");
        encode_frame(&mut buf, 1, b"second");
        // Cut mid-way through the second frame's payload.
        buf.truncate(buf.len() - 3);
        match read_all(&buf) {
            Err(StoreError::TruncatedFrame { .. }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
        // Cut mid-way through the second frame's header.
        let mut buf2 = Vec::new();
        encode_frame(&mut buf2, 1, b"first");
        let first_len = buf2.len();
        encode_frame(&mut buf2, 1, b"second");
        buf2.truncate(first_len + 4);
        match read_all(&buf2) {
            Err(StoreError::TruncatedFrame { .. }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn implausible_length_is_codec_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.push(1);
        buf.extend_from_slice(&0u32.to_le_bytes());
        // Pad so the header itself is readable under a large limit.
        buf.extend_from_slice(&[0u8; 32]);
        let mut r = FrameReader::new(&buf[..], Path::new("t"), u32::MAX as u64 + 64);
        match r.next_frame() {
            Err(StoreError::Codec { .. }) => {}
            other => panic!("expected codec error, got {other:?}"),
        }
    }

    #[test]
    fn limit_hides_uncommitted_tail() {
        let mut buf = Vec::new();
        let committed = encode_frame(&mut buf, 1, b"committed");
        encode_frame(&mut buf, 1, b"uncommitted garbage");
        let mut r = FrameReader::new(&buf[..], Path::new("t"), committed);
        assert_eq!(r.next_frame().unwrap().unwrap().payload, b"committed");
        assert!(r.next_frame().unwrap().is_none());
    }

    /// Drain a `SliceFrameReader`, returning owned frames for comparison.
    fn slice_read_all(bytes: &[u8], limit: u64) -> Result<Vec<Frame>, StoreError> {
        let mut r = SliceFrameReader::new(bytes, Path::new("test.seg"), limit);
        let mut out = Vec::new();
        while let Some(f) = r.next_frame()? {
            out.push(Frame {
                kind: f.kind,
                payload: f.payload.to_vec(),
                offset: f.offset,
            });
        }
        Ok(out)
    }

    #[test]
    fn slice_reader_matches_stream_reader_on_clean_input() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, b"hello");
        encode_frame(&mut buf, 2, b"");
        let committed = buf.len() as u64;
        encode_frame(&mut buf, 1, b"uncommitted garbage");
        let streamed = {
            let mut r = FrameReader::new(&buf[..], Path::new("test.seg"), committed);
            let mut out = Vec::new();
            while let Some(f) = r.next_frame().unwrap() {
                out.push(f);
            }
            out
        };
        let sliced = slice_read_all(&buf, committed).unwrap();
        assert_eq!(streamed, sliced);
    }

    #[test]
    fn slice_reader_errors_match_stream_reader_errors() {
        // Bit-flipped payload → ChecksumMismatch at the same offset.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, b"payload-bytes");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        match slice_read_all(&buf, buf.len() as u64) {
            Err(StoreError::ChecksumMismatch { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        // Cut mid-payload and mid-header → TruncatedFrame, as the stream
        // reader reports, whether the limit or the slice itself is short.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, b"first");
        let first_len = buf.len() as u64;
        encode_frame(&mut buf, 1, b"second");
        for cut in [buf.len() - 3, first_len as usize + 4] {
            match slice_read_all(&buf[..cut], cut as u64) {
                Err(StoreError::TruncatedFrame { .. }) => {}
                other => panic!("expected truncation at cut {cut}, got {other:?}"),
            }
            match slice_read_all(&buf, cut as u64) {
                Err(StoreError::TruncatedFrame { .. }) => {}
                other => panic!("expected truncation at limit {cut}, got {other:?}"),
            }
        }
        // Implausible declared length → Codec error.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.push(1);
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 32]);
        let mut r = SliceFrameReader::new(&buf, Path::new("t"), u32::MAX as u64 + 64);
        match r.next_frame() {
            Err(StoreError::Codec { .. }) => {}
            other => panic!("expected codec error, got {other:?}"),
        }
    }
}
