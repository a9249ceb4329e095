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
//!
//! There is one read path. `CommittedFile` reads a byte range inside a
//! file's committed bytes into a buffer of exactly that length, and
//! [`SliceFrameReader`] walks the buffer, borrowing every payload.

use crate::error::StoreError;
use mev_types::codec::{self, Decode};
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
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

/// A reader's place in a committed stream: every check is made here.
struct Position {
    path: PathBuf,
    offset: u64,
    /// Committed bytes; reading stops exactly here.
    limit: u64,
}

impl Position {
    /// A [`StoreError::Codec`] about the frame at byte `at`.
    fn codec(&self, at: u64, detail: String) -> StoreError {
        StoreError::Codec {
            path: self.path.clone(),
            detail: format!("frame at byte {at}: {detail}"),
        }
    }

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
            let detail = format!("declares implausible length {len}");
            return Err(self.codec(self.offset, detail));
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

/// A frame whose payload borrows the byte image it was read from. The
/// CRC has already been verified over the borrowed bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSlice<'a> {
    pub kind: u8,
    pub payload: &'a [u8],
    /// Byte offset of the frame header within the file image.
    pub offset: u64,
}

/// Frame reader over a byte image (a `CommittedFile` read or any
/// `&[u8]`), bounded by the committed byte count: `None` at the limit,
/// a [`StoreError`] for every corruption shape. Payloads are borrowed,
/// never copied.
pub struct SliceFrameReader<'a> {
    bytes: &'a [u8],
    at: Position,
}

impl<'a> SliceFrameReader<'a> {
    /// `limit` is the committed length of the stream; a `bytes` shorter
    /// than it surfaces as [`StoreError::TruncatedFrame`], never an
    /// out-of-bounds read.
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

    /// Decode the next frame, which must be a `kind` frame (`what` names
    /// it): a missing frame, another kind or a payload that does not
    /// decode is a [`StoreError::Codec`].
    pub fn decode_next<T: Decode>(&mut self, kind: u8, what: &str) -> Result<T, StoreError> {
        let at = self.at.offset;
        let detail = match self.next_frame()? {
            Some(frame) if frame.kind == kind => match codec::from_slice(frame.payload) {
                Ok(value) => return Ok(value),
                Err(e) => format!("{what}: {e}"),
            },
            Some(frame) => format!("kind {} is not {what}", frame.kind),
            None => format!("no {what}"),
        };
        Err(self.at.codec(at, detail))
    }
}

/// A store file opened for reads inside its committed bytes — the one
/// way the store reads a segment or sidecar.
pub(crate) struct CommittedFile {
    file: fs::File,
    path: PathBuf,
    committed: u64,
}

impl CommittedFile {
    /// Open `path`, whose first `committed` bytes the manifest commits:
    /// [`StoreError::SegmentMissing`] when it is absent,
    /// [`StoreError::SegmentTruncated`] when it is shorter.
    pub(crate) fn open(path: &Path, committed: u64) -> Result<CommittedFile, StoreError> {
        let file = match fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::SegmentMissing {
                    path: path.to_path_buf(),
                })
            }
            Err(e) => return Err(StoreError::io("open store file", path, e)),
        };
        let actual = file
            .metadata()
            .map_err(|e| StoreError::io("stat store file", path, e))?
            .len();
        if actual < committed {
            return Err(StoreError::SegmentTruncated {
                path: path.to_path_buf(),
                committed,
                actual,
            });
        }
        Ok(CommittedFile {
            file,
            path: path.to_path_buf(),
            committed,
        })
    }

    /// Bytes `range` of the file, read with one seek and one
    /// `read_exact` into a buffer of exactly that length. A range that
    /// ends past the committed bytes, or a file cut short since
    /// [`CommittedFile::open`], is a [`StoreError::TruncatedFrame`] at
    /// the range's start.
    pub(crate) fn read(&mut self, range: Range<u64>) -> Result<Vec<u8>, StoreError> {
        let truncated = || StoreError::TruncatedFrame {
            path: self.path.clone(),
            offset: range.start,
        };
        if range.end > self.committed || range.start > range.end {
            return Err(truncated());
        }
        let mut buf = vec![0u8; (range.end - range.start) as usize];
        self.file
            .seek(SeekFrom::Start(range.start))
            .map_err(|e| StoreError::io("seek store file", &self.path, e))?;
        self.file.read_exact(&mut buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => truncated(),
            _ => StoreError::io("read store file", &self.path, e),
        })?;
        Ok(buf)
    }

    /// The end of the frame that starts at byte `at`, from its length
    /// field; reading up to it checks it against the committed bytes.
    pub(crate) fn frame_end(&mut self, at: u64) -> Result<u64, StoreError> {
        let header = self.read(at..at + FRAME_HEADER_BYTES)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        Ok(at + FRAME_HEADER_BYTES + len as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mev_types::seeded::check_seeds;

    /// Every frame of `bytes` up to `limit`.
    fn read_all(bytes: &[u8], limit: u64) -> Result<Vec<FrameSlice<'_>>, StoreError> {
        let mut r = SliceFrameReader::new(bytes, Path::new("test.seg"), limit);
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
        let frames = read_all(&buf, buf.len() as u64).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].kind, 1);
        assert_eq!(frames[0].payload, b"hello");
        assert_eq!(frames[1].payload, b"");
        assert_eq!(frames[2].payload, &[0xAB; 1000][..]);
        assert_eq!(frames[1].offset, FRAME_HEADER_BYTES + 5);
    }

    #[test]
    fn corrupted_payload_is_checksum_error() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, b"payload-bytes");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        match read_all(&buf, buf.len() as u64) {
            Err(StoreError::ChecksumMismatch { offset, .. }) => assert_eq!(offset, 0),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_tail_is_detected() {
        // Cut mid-way through the second frame's payload, then mid-way
        // through its header: a truncation whether the slice itself or
        // the committed limit is short.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, b"first");
        let first_len = buf.len();
        encode_frame(&mut buf, 1, b"second");
        for cut in [buf.len() - 3, first_len + 4] {
            match read_all(&buf[..cut], cut as u64) {
                Err(StoreError::TruncatedFrame { offset, .. }) => {
                    assert_eq!(offset, first_len as u64)
                }
                other => panic!("expected truncation at cut {cut}, got {other:?}"),
            }
            match read_all(&buf, cut as u64) {
                Err(StoreError::TruncatedFrame { offset, .. }) => {
                    assert_eq!(offset, first_len as u64)
                }
                other => panic!("expected truncation at limit {cut}, got {other:?}"),
            }
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
        let mut r = SliceFrameReader::new(&buf, Path::new("t"), u32::MAX as u64 + 64);
        match r.next_frame() {
            Err(StoreError::Codec { .. }) => {}
            other => panic!("expected codec error, got {other:?}"),
        }
    }

    #[test]
    fn limit_hides_uncommitted_tail() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, b"committed");
        let first = buf.len() as u64;
        encode_frame(&mut buf, 2, b"");
        let committed = buf.len() as u64;
        encode_frame(&mut buf, 1, b"uncommitted garbage");
        let frames = read_all(&buf, committed).unwrap();
        let want = [
            FrameSlice {
                kind: 1,
                payload: b"committed",
                offset: 0,
            },
            FrameSlice {
                kind: 2,
                payload: b"",
                offset: first,
            },
        ];
        assert_eq!(frames, want);
    }

    #[test]
    fn committed_file_reads_exact_ranges() {
        let dir = crate::testutil::scratch_dir("frame-committed-file");
        let path = dir.join("f.seg");
        let missing = CommittedFile::open(&path, 0);
        assert!(matches!(missing, Err(StoreError::SegmentMissing { .. })));
        let mut buf = Vec::new();
        let first = encode_frame(&mut buf, 1, b"hello");
        let second = encode_frame(&mut buf, 2, &[0xAB; 300]);
        fs::write(&path, &buf).unwrap();
        let short = CommittedFile::open(&path, first + second + 1);
        assert!(matches!(short, Err(StoreError::SegmentTruncated { .. })));
        // Committed bytes that end inside the second frame bound every read.
        let mut f = CommittedFile::open(&path, first + 20).unwrap();
        assert_eq!(f.frame_end(0).unwrap(), first);
        let got = f.read(1..first).unwrap();
        assert_eq!((got.len(), got.capacity()), (first as usize - 1, got.len()));
        assert_eq!(got, &buf[1..first as usize]);
        assert!(f.read(first..first).unwrap().is_empty());
        let end = f.frame_end(first).unwrap();
        assert!(matches!(
            f.read(first..end),
            Err(StoreError::TruncatedFrame { offset, .. }) if offset == first
        ));
        // A file cut short after it was opened.
        fs::write(&path, &buf[..12]).unwrap();
        assert!(matches!(
            f.read(0..first),
            Err(StoreError::TruncatedFrame { offset: 0, .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_next_names_the_frame_it_wanted() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, &codec::to_vec(&7u64));
        encode_frame(&mut buf, 1, &[0xFF]);
        let mut r = SliceFrameReader::new(&buf, Path::new("t"), buf.len() as u64);
        assert!(matches!(
            r.decode_next::<u64>(2, "a block entry"),
            Err(StoreError::Codec { detail, .. }) if detail.contains("kind 1 is not a block entry")
        ));
        let mut r = SliceFrameReader::new(&buf, Path::new("t"), buf.len() as u64);
        assert_eq!(r.decode_next::<u64>(1, "a count").unwrap(), 7);
        assert!(r.decode_next::<u64>(1, "a count").is_err(), "torn varint");
        assert!(r.decode_next::<u64>(1, "a count").is_err(), "no frame");
    }
}
