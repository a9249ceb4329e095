//! Per-segment secondary index: inverted postings plus columnar row
//! chunks, persisted as a checksummed sidecar file next to the segment.
//!
//! A sidecar *run* is framed exactly like segment files
//! (`[len][kind][crc32][payload]`, committed-byte-limit reads):
//!
//! ```text
//! [IndexHeader]  frame kind 3 — version, segment, rows, chunk size
//! [PostingsTable] frame kind 4 — AddrId → per-kind row ranges,
//!                 kind → row ranges, and the chunk offset table
//! [RowChunk]*    frame kind 5 — ROWS_PER_CHUNK log rows per frame,
//!                 columnar (block / tx_index / tx_hash / log)
//! ```
//!
//! A *row* is one log of the segment, numbered in `(block, tx_index,
//! log position)` order — the exact order a full scan of the segment
//! emits, so serving a filter from postings is bit-identical to scanning.
//! Row ids index the postings tables; `AddrId`s are dense u32 ids from a
//! per-segment first-intern-order [`Interner`] (the same id discipline
//! the detection `BlockIndex` uses), so the address table is
//! `postings.addrs[addr_id]` with no hashing at query time.
//!
//! The postings frame carries byte offsets of every row-chunk frame
//! *relative to the end of the postings frame*, so a chunk's byte range
//! is known before it is read: an address-history query reads the
//! ranges of the chunks it needs, one seek and one read each, and
//! **zero** segment data frames. Opening a sidecar reads the header and
//! postings frames alone. An opened [`SegmentIndex`] keeps each row chunk
//! once it has been read, CRC-checked and decoded, and the reader's
//! segment cache keeps the opened index while it has room for it, so a
//! warm postings-planned query reads nothing from disk at all. Query stats stay logical either way:
//! they count the two leading index frames plus every chunk touched,
//! whether it came from disk or from memory.
//!
//! Only a sealed segment has a sidecar: its `seg-XXXXX.idx`, one run
//! written once under its final name when the segment seals (or a
//! compacted tier is written) and synced by the commit that names it.
//! Its shape (`bytes`, rows, chunk geometry) rides `SegmentMeta::postings`
//! through the manifest commit, so a reader only ever reads a whole
//! committed run. A sidecar that is missing, truncated, or fails any
//! checksum degrades the segment to a full scan — never a query error.
//!
//! The open tail has no sidecar: a tail commit writes no index. A reader
//! builds the tail's [`SegmentIndex`] in memory from its committed
//! entries ([`IndexBuilder::to_index`]), holding exactly what opening
//! the run of those entries would hold.

use crate::error::StoreError;
use crate::frame::{encode_frame, CommittedFile, SliceFrameReader};
use crate::manifest::{SegmentMeta, FORMAT_VERSION};
use crate::segment::{read_segment, BlockEntry};
use mev_chain::{EventKind, LogFilter};
use mev_types::codec::{Decode, DecodeError, Encode, Reader};
use mev_types::{Address, Interner, Log, Receipt, TxHash};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Frame kind of the index header (first frame of every sidecar).
pub const FRAME_INDEX_HEADER: u8 = 3;
/// Frame kind of the postings table (second frame).
pub const FRAME_POSTINGS: u8 = 4;
/// Frame kind of a columnar row chunk.
pub const FRAME_ROW_CHUNK: u8 = 5;

/// Rows per [`RowChunk`] frame. Fixed so `chunk = row / ROWS_PER_CHUNK`
/// without consulting per-chunk metadata.
pub const ROWS_PER_CHUNK: u32 = 512;

/// Number of event families in the frozen tag space (`EventKind::ALL`).
const KIND_SLOTS: usize = EventKind::ALL.len();

/// Sidecar file name of segment `index` under the store root.
pub fn index_file_name(index: u64) -> String {
    format!("seg-{index:05}.idx")
}

/// Sidecar file name belonging to an arbitrary segment file name —
/// `seg-00003.seg → seg-00003.idx`, `seg-c7-00001.seg →
/// seg-c7-00001.idx`. Keeping the bases equal means a segment and its
/// sidecar are always adjacent in a directory listing and can never
/// collide across the plain/compacted namespaces.
pub fn sidecar_file_name(segment_file: &str) -> String {
    format!(
        "{}.idx",
        segment_file.strip_suffix(".seg").unwrap_or(segment_file)
    )
}

/// First frame of every sidecar index file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexHeader {
    pub version: u32,
    /// Segment this sidecar indexes.
    pub segment: u64,
    pub first_block: u64,
    /// Total log rows in the segment.
    pub rows: u64,
    /// Rows per chunk frame ([`ROWS_PER_CHUNK`] at write time).
    pub chunk_rows: u32,
}

/// Inclusive-start `(first_row, len)` run of consecutive rows.
pub type RowRange = (u32, u32);

/// The inverted postings of one segment.
#[derive(Debug, Clone, PartialEq)]
pub struct PostingsTable {
    /// Addresses in first-intern order; the position *is* the `AddrId`.
    pub addrs: Vec<Address>,
    /// `addrs`-parallel: for each address, `(kind tag, row ranges)`
    /// entries sorted by tag — the rows where that address emitted that
    /// event family.
    pub by_addr_kind: Vec<Vec<(u8, Vec<RowRange>)>>,
    /// Kind tag → row ranges, for address-free kind filters.
    pub by_kind: Vec<Vec<RowRange>>,
    /// Byte offset of each row-chunk frame, relative to the first byte
    /// after the postings frame (relative so this table's own encoded
    /// size cannot perturb it).
    pub chunk_offsets: Vec<u64>,
}

/// One columnar chunk of log rows. Two encodings share the frame kind:
/// the plain one carries whole [`Log`]s in `logs`; the
/// dictionary-compressed one (compacted tiers) leaves `logs` empty and
/// instead carries `addr_ids` (dense u32 ids into the postings address
/// table — the same id discipline as the postings themselves) plus the
/// address-free `events` column. Readers reconstruct
/// `Log { address: addrs[addr_id], event }` losslessly.
#[derive(Debug, Clone, PartialEq)]
pub struct RowChunk {
    /// Row id of the first row in this chunk.
    pub start_row: u32,
    pub blocks: Vec<u64>,
    pub tx_indices: Vec<u32>,
    pub tx_hashes: Vec<TxHash>,
    pub logs: Vec<Log>,
    /// Dictionary encoding (empty on plain chunks).
    pub addr_ids: Vec<u32>,
    pub events: Vec<mev_types::LogEvent>,
}

impl Encode for IndexHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        let IndexHeader {
            version,
            segment,
            first_block,
            rows,
            chunk_rows,
        } = self;
        version.encode(out);
        segment.encode(out);
        first_block.encode(out);
        rows.encode(out);
        chunk_rows.encode(out);
    }
}

impl Decode for IndexHeader {
    fn decode(r: &mut Reader<'_>) -> Result<IndexHeader, DecodeError> {
        Ok(IndexHeader {
            version: u32::decode(r)?,
            segment: u64::decode(r)?,
            first_block: u64::decode(r)?,
            rows: u64::decode(r)?,
            chunk_rows: u32::decode(r)?,
        })
    }
}

impl Encode for PostingsTable {
    fn encode(&self, out: &mut Vec<u8>) {
        let PostingsTable {
            addrs,
            by_addr_kind,
            by_kind,
            chunk_offsets,
        } = self;
        addrs.encode(out);
        by_addr_kind.encode(out);
        by_kind.encode(out);
        chunk_offsets.encode(out);
    }
}

impl Decode for PostingsTable {
    fn decode(r: &mut Reader<'_>) -> Result<PostingsTable, DecodeError> {
        Ok(PostingsTable {
            addrs: Vec::decode(r)?,
            by_addr_kind: Vec::decode(r)?,
            by_kind: Vec::decode(r)?,
            chunk_offsets: Vec::decode(r)?,
        })
    }
}

impl Encode for RowChunk {
    fn encode(&self, out: &mut Vec<u8>) {
        let RowChunk {
            start_row,
            blocks,
            tx_indices,
            tx_hashes,
            logs,
            addr_ids,
            events,
        } = self;
        start_row.encode(out);
        blocks.encode(out);
        tx_indices.encode(out);
        tx_hashes.encode(out);
        logs.encode(out);
        addr_ids.encode(out);
        events.encode(out);
    }
}

impl Decode for RowChunk {
    fn decode(r: &mut Reader<'_>) -> Result<RowChunk, DecodeError> {
        Ok(RowChunk {
            start_row: u32::decode(r)?,
            blocks: Vec::decode(r)?,
            tx_indices: Vec::decode(r)?,
            tx_hashes: Vec::decode(r)?,
            logs: Vec::decode(r)?,
            addr_ids: Vec::decode(r)?,
            events: Vec::decode(r)?,
        })
    }
}

/// Committed shape of a segment's sidecar, recorded in `SegmentMeta` and
/// thus in the committed manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexMeta {
    pub file: String,
    /// Length of the committed run; reads never cross this.
    pub bytes: u64,
    pub rows: u64,
    /// Distinct emitting addresses in the segment.
    pub addrs: u64,
    pub chunk_rows: u32,
    /// Row chunks carry dictionary-compressed address/event columns
    /// instead of whole logs (written by compaction).
    pub dict_addrs: bool,
}

impl Encode for IndexMeta {
    fn encode(&self, out: &mut Vec<u8>) {
        let IndexMeta {
            file,
            bytes,
            rows,
            addrs,
            chunk_rows,
            dict_addrs,
        } = self;
        file.encode(out);
        bytes.encode(out);
        rows.encode(out);
        addrs.encode(out);
        chunk_rows.encode(out);
        dict_addrs.encode(out);
    }
}

impl Decode for IndexMeta {
    fn decode(r: &mut Reader<'_>) -> Result<IndexMeta, DecodeError> {
        Ok(IndexMeta {
            file: String::decode(r)?,
            bytes: u64::decode(r)?,
            rows: u64::decode(r)?,
            addrs: u64::decode(r)?,
            chunk_rows: u32::decode(r)?,
            dict_addrs: bool::decode(r)?,
        })
    }
}

fn codec(path: &Path, detail: String) -> StoreError {
    StoreError::Codec {
        path: path.to_path_buf(),
        detail,
    }
}

/// `postings.addrs` as `(address, AddrId)` pairs sorted by address.
fn addr_ids(postings: &PostingsTable) -> Vec<(Address, u32)> {
    let mut ids: Vec<_> = (postings.addrs.iter().enumerate())
        .map(|(id, &addr)| (addr, id as u32))
        .collect();
    ids.sort_unstable();
    ids
}

/// Extend the trailing range if `row` continues it, else open a new one.
fn push_row(ranges: &mut Vec<RowRange>, row: u32) {
    if let Some((start, len)) = ranges.last_mut() {
        if *start + *len == row {
            *len += 1;
            return;
        }
    }
    ranges.push((row, 1));
}

/// Sort and coalesce ranges from several postings lists into one
/// ascending, non-overlapping run list.
pub fn merge_ranges(mut ranges: Vec<RowRange>) -> Vec<RowRange> {
    ranges.sort_unstable();
    let mut out: Vec<RowRange> = Vec::with_capacity(ranges.len());
    for (start, len) in ranges {
        if let Some((last_start, last_len)) = out.last_mut() {
            let last_end = *last_start + *last_len;
            if start <= last_end {
                let end = (start + len).max(last_end);
                *last_len = end - *last_start;
                continue;
            }
        }
        out.push((start, len));
    }
    out
}

/// Accumulates a segment's postings and rows while the segment is being
/// written; [`IndexBuilder::write`] persists the sidecar.
#[derive(Debug, Clone)]
pub struct IndexBuilder {
    interner: Interner<Address>,
    by_addr_kind: Vec<Vec<(u8, Vec<RowRange>)>>,
    by_kind: Vec<Vec<RowRange>>,
    blocks: Vec<u64>,
    tx_indices: Vec<u32>,
    tx_hashes: Vec<TxHash>,
    logs: Vec<Log>,
}

impl IndexBuilder {
    pub fn new() -> IndexBuilder {
        IndexBuilder {
            interner: Interner::new(),
            by_addr_kind: Vec::new(),
            by_kind: vec![Vec::new(); KIND_SLOTS],
            blocks: Vec::new(),
            tx_indices: Vec::new(),
            tx_hashes: Vec::new(),
            logs: Vec::new(),
        }
    }

    /// Rebuild the index of an already-written run of entries (reopened
    /// tail segments, verification).
    pub fn from_entries(entries: &[BlockEntry]) -> IndexBuilder {
        let mut b = IndexBuilder::new();
        for entry in entries {
            b.add_block(entry.block.header.number, &entry.receipts);
        }
        b
    }

    /// Total log rows accumulated.
    pub fn rows(&self) -> u64 {
        self.logs.len() as u64
    }

    /// Distinct emitting addresses seen.
    pub fn addrs(&self) -> u64 {
        self.interner.len() as u64
    }

    /// Index the logs of block `number`. Must be fed blocks in the same
    /// order they are appended to the segment — row order is append order.
    pub fn add_block(&mut self, number: u64, receipts: &[Receipt]) {
        for r in receipts {
            for log in &r.logs {
                let row = self.logs.len() as u32;
                let tag = EventKind::of(&log.event).tag();
                let aid = self.interner.intern(log.address).raw() as usize;
                if self.by_addr_kind.len() <= aid {
                    self.by_addr_kind.resize_with(aid + 1, Vec::new);
                }
                if let Some(entries) = self.by_addr_kind.get_mut(aid) {
                    match entries.binary_search_by_key(&tag, |(t, _)| *t) {
                        Ok(pos) => {
                            if let Some((_, ranges)) = entries.get_mut(pos) {
                                push_row(ranges, row);
                            }
                        }
                        Err(pos) => entries.insert(pos, (tag, vec![(row, 1)])),
                    }
                }
                if let Some(ranges) = self.by_kind.get_mut(tag as usize) {
                    push_row(ranges, row);
                }
                self.blocks.push(number);
                self.tx_indices.push(r.index);
                self.tx_hashes.push(r.tx_hash);
                self.logs.push(log.clone());
            }
        }
    }

    /// Encode the complete sidecar byte stream for segment
    /// `segment_index` starting at `first_block`: `dict_addrs` swaps the
    /// `logs` column of the row chunks for dictionary-compressed
    /// `addr_ids` + `events` columns (ids into the postings address
    /// table).
    pub fn encode_with(&self, segment_index: u64, first_block: u64, dict_addrs: bool) -> Vec<u8> {
        let (header, postings, chunks) = self.run(segment_index, first_block, dict_addrs);
        let mut out = Vec::new();
        encode_frame(
            &mut out,
            FRAME_INDEX_HEADER,
            &mev_types::codec::to_vec(&header),
        );
        encode_frame(
            &mut out,
            FRAME_POSTINGS,
            &mev_types::codec::to_vec(&postings),
        );
        for (_, payload) in &chunks {
            encode_frame(&mut out, FRAME_ROW_CHUNK, payload);
        }
        out
    }

    /// The open tail's index, built in memory: the header, postings and
    /// decoded row chunks that [`SegmentIndex::open`] of this builder's
    /// plain run would hold once every chunk was read, so queries and
    /// their stats cannot tell the two apart. `path` (the tail's segment
    /// file) only names the index in errors.
    pub fn to_index(&self, segment_index: u64, first_block: u64, path: PathBuf) -> SegmentIndex {
        let (header, postings, chunks) = self.run(segment_index, first_block, false);
        SegmentIndex {
            addr_ids: addr_ids(&postings),
            chunks: chunks.into_iter().map(|(c, _)| OnceLock::from(c)).collect(),
            header,
            postings,
            path,
            // No file backs the index, so no chunk is ever read from one.
            committed_bytes: 0,
            data_start: 0,
            pages_read: 2,
        }
    }

    /// One run's header, postings table and row chunks, each chunk with
    /// its encoded payload, which sizes the postings' chunk offsets.
    fn run(
        &self,
        segment_index: u64,
        first_block: u64,
        dict_addrs: bool,
    ) -> (IndexHeader, PostingsTable, Vec<(RowChunk, Vec<u8>)>) {
        let chunk_rows = ROWS_PER_CHUNK;
        let mut chunks = Vec::new();
        let mut chunk_offsets = Vec::new();
        let mut rel = 0u64;
        let mut start = 0usize;
        while start < self.logs.len() {
            let end = (start + chunk_rows as usize).min(self.logs.len());
            let slice = &self.logs[start..end];
            let (logs, addr_ids, events) = if dict_addrs {
                (
                    Vec::new(),
                    // Every address here was interned by `add_block`.
                    slice
                        .iter()
                        .map(|l| self.interner.lookup(&l.address).map_or(0, |id| id.raw()))
                        .collect(),
                    slice.iter().map(|l| l.event.clone()).collect(),
                )
            } else {
                (slice.to_vec(), Vec::new(), Vec::new())
            };
            let chunk = RowChunk {
                start_row: start as u32,
                blocks: self.blocks[start..end].to_vec(),
                tx_indices: self.tx_indices[start..end].to_vec(),
                tx_hashes: self.tx_hashes[start..end].to_vec(),
                logs,
                addr_ids,
                events,
            };
            let payload = mev_types::codec::to_vec(&chunk);
            chunk_offsets.push(rel);
            rel += crate::frame::FRAME_HEADER_BYTES + payload.len() as u64;
            chunks.push((chunk, payload));
            start = end;
        }
        let postings = PostingsTable {
            addrs: self.interner.keys_in_order().to_vec(),
            by_addr_kind: self.by_addr_kind.clone(),
            by_kind: self.by_kind.clone(),
            chunk_offsets,
        };
        let header = IndexHeader {
            version: FORMAT_VERSION,
            segment: segment_index,
            first_block,
            rows: self.logs.len() as u64,
            chunk_rows,
        };
        (header, postings, chunks)
    }

    /// Write the sidecar for segment `segment_index` as `file` under
    /// `root` (`dict_addrs`: compaction's dictionary-compressed rows), in
    /// place and unsynced, and return the [`IndexMeta`] to commit with
    /// the open file. No manifest names the file until the caller syncs
    /// it and commits; a crash before that leaves an orphan that the
    /// next open sweeps.
    pub fn write_named_with(
        &self,
        root: &Path,
        file: String,
        segment_index: u64,
        first_block: u64,
        dict_addrs: bool,
    ) -> Result<(IndexMeta, fs::File), StoreError> {
        let path = root.join(&file);
        let bytes = self.encode_with(segment_index, first_block, dict_addrs);
        let out = fs::File::create(&path)
            .and_then(|mut f| f.write_all(&bytes).map(|()| f))
            .map_err(|e| StoreError::io("write sidecar", &path, e))?;
        let meta = IndexMeta {
            file,
            bytes: bytes.len() as u64,
            rows: self.rows(),
            addrs: self.addrs(),
            chunk_rows: ROWS_PER_CHUNK,
            dict_addrs,
        };
        Ok((meta, out))
    }
}

impl Default for IndexBuilder {
    fn default() -> IndexBuilder {
        IndexBuilder::new()
    }
}

/// An opened, validated sidecar: header and postings loaded, row chunks
/// read on demand through [`RowReader`] and kept once decoded — or the
/// open tail's index, built in memory with every chunk in place.
pub struct SegmentIndex {
    pub header: IndexHeader,
    pub postings: PostingsTable,
    /// `postings.addrs` as `(address, AddrId)` sorted by address, so a
    /// filter address is found by binary search.
    addr_ids: Vec<(Address, u32)>,
    /// One slot per row chunk, filled by the first successful read and
    /// kept for the life of this index. A failed read leaves its slot
    /// empty, so a damaged chunk fails every query that touches it.
    chunks: Vec<OnceLock<RowChunk>>,
    path: PathBuf,
    /// End of the committed run (from the manifest, not the file system);
    /// 0 for an index built in memory.
    committed_bytes: u64,
    /// Absolute byte offset of the first row-chunk frame.
    data_start: u64,
    /// Index pages (frames) read while opening: header + postings.
    pub pages_read: u64,
}

impl SegmentIndex {
    /// A segment's index: its sidecar opened, or for the open tail, which
    /// has none, built in memory from its committed entries.
    pub fn load(root: &Path, meta: &SegmentMeta) -> Result<SegmentIndex, StoreError> {
        match meta.postings {
            Some(_) => SegmentIndex::open(root, meta),
            None => {
                let builder = IndexBuilder::from_entries(&read_segment(root, meta)?);
                Ok(builder.to_index(meta.index, meta.first_block, root.join(&meta.file)))
            }
        }
    }

    /// Open and validate a segment's sidecar against its committed meta.
    /// Any error here means the caller must fall back to scanning the
    /// segment's data frames; results stay correct either way.
    /// The open tail has no sidecar ([`IndexBuilder::to_index`] builds
    /// its index instead).
    pub fn open(root: &Path, meta: &SegmentMeta) -> Result<SegmentIndex, StoreError> {
        let im = (meta.postings.as_ref()).ok_or_else(|| {
            codec(
                &root.join(&meta.file),
                "the open tail has no sidecar".into(),
            )
        })?;
        let path = root.join(&im.file);
        // The header and postings frames, read as one range once their
        // length fields are known; the row chunks stay on disk.
        let mut file = CommittedFile::open(&path, im.bytes)?;
        let data_start = file.frame_end(0).and_then(|end| file.frame_end(end))?;
        let bytes = file.read(0..data_start)?;
        let mut reader = SliceFrameReader::new(&bytes, &path, data_start);
        let header: IndexHeader = reader.decode_next(FRAME_INDEX_HEADER, "an index header")?;
        if header.version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: header.version,
                supported: FORMAT_VERSION,
            });
        }
        // The header's recorded segment position may lag the manifest's
        // after compaction renumbers survivors in place; `first_block`
        // alone pins content identity.
        if header.first_block != meta.first_block
            || header.rows != im.rows
            || header.chunk_rows != im.chunk_rows
            || header.chunk_rows == 0
        {
            return Err(codec(
                &path,
                format!(
                    "index header (first_block {}, rows {}, chunk_rows {}) \
                     disagrees with manifest (first_block {}, rows {}, chunk_rows {})",
                    header.first_block,
                    header.rows,
                    header.chunk_rows,
                    meta.first_block,
                    im.rows,
                    im.chunk_rows
                ),
            ));
        }
        let postings: PostingsTable = reader.decode_next(FRAME_POSTINGS, "a postings table")?;
        let want_chunks = header.rows.div_ceil(header.chunk_rows as u64);
        if postings.addrs.len() != postings.by_addr_kind.len()
            || postings.by_kind.len() != KIND_SLOTS
            || postings.chunk_offsets.len() as u64 != want_chunks
            || postings.chunk_offsets.first().is_some_and(|&o| o != 0)
            || postings.chunk_offsets.windows(2).any(|w| w[0] >= w[1])
        {
            return Err(codec(&path, "postings table is inconsistent".to_string()));
        }
        Ok(SegmentIndex {
            addr_ids: addr_ids(&postings),
            chunks: (0..postings.chunk_offsets.len())
                .map(|_| OnceLock::new())
                .collect(),
            header,
            postings,
            path,
            committed_bytes: im.bytes,
            data_start,
            pages_read: 2,
        })
    }

    /// The ascending, coalesced row ranges a filter's address/kind
    /// predicate selects. Row order is scan order, so walking these
    /// ranges front to back reproduces a full scan of the matches.
    pub fn rows_for_filter(&self, filter: &LogFilter) -> Vec<RowRange> {
        let mut ranges: Vec<RowRange> = Vec::new();
        if !filter.addresses.is_empty() {
            for addr in &filter.addresses {
                // The lowest id of `addr`: what a front-to-back search
                // of `postings.addrs` finds.
                let at = self.addr_ids.partition_point(|(a, _)| a < addr);
                let aid = match self.addr_ids.get(at) {
                    Some((a, aid)) if a == addr => *aid as usize,
                    _ => continue,
                };
                let Some(entries) = self.postings.by_addr_kind.get(aid) else {
                    continue;
                };
                for (tag, rs) in entries {
                    if filter.kinds.is_empty() || filter.kinds.iter().any(|k| k.tag() == *tag) {
                        ranges.extend_from_slice(rs);
                    }
                }
            }
        } else if !filter.kinds.is_empty() {
            for kind in &filter.kinds {
                if let Some(rs) = self.postings.by_kind.get(kind.tag() as usize) {
                    ranges.extend_from_slice(rs);
                }
            }
        } else if self.header.rows > 0 {
            ranges.push((0, self.header.rows as u32));
        }
        merge_ranges(ranges)
    }

    /// A row accessor over this sidecar.
    pub fn rows(&self) -> RowReader<'_> {
        RowReader {
            index: self,
            file: None,
            current: None,
            pages_read: 0,
        }
    }

    /// Row chunk `chunk_no`: kept from an earlier read, or read through
    /// `file` (opened here on first need), checked, decoded and kept.
    fn chunk(
        &self,
        file: &mut Option<CommittedFile>,
        chunk_no: u32,
    ) -> Result<&RowChunk, StoreError> {
        let slot = self
            .chunks
            .get(chunk_no as usize)
            .ok_or_else(|| codec(&self.path, format!("chunk {chunk_no} out of range")))?;
        if let Some(chunk) = slot.get() {
            return Ok(chunk);
        }
        let f = match file {
            Some(f) => f,
            None => file.insert(CommittedFile::open(&self.path, self.committed_bytes)?),
        };
        let chunk = self.read_chunk(f, chunk_no)?;
        // A concurrent reader may have filled the slot meanwhile; both
        // decoded the same committed bytes, so either copy serves.
        Ok(slot.get_or_init(|| chunk))
    }

    /// Read chunk `chunk_no`'s byte range — from its offset to the next
    /// chunk's, or to the committed bytes for the last — and decode it.
    fn read_chunk(&self, file: &mut CommittedFile, chunk_no: u32) -> Result<RowChunk, StoreError> {
        let offsets = &self.postings.chunk_offsets;
        let rel = *offsets
            .get(chunk_no as usize)
            .ok_or_else(|| codec(&self.path, format!("chunk {chunk_no} out of range")))?;
        let start = self.data_start + rel;
        let end = offsets
            .get(chunk_no as usize + 1)
            .map_or(self.committed_bytes, |next| self.data_start + next);
        if start >= end.min(self.committed_bytes) {
            return Err(codec(
                &self.path,
                format!("chunk {chunk_no} offset {start} past committed bytes"),
            ));
        }
        let bytes = file.read(start..end)?;
        let chunk: RowChunk = SliceFrameReader::new(&bytes, &self.path, bytes.len() as u64)
            .decode_next(FRAME_ROW_CHUNK, "a row chunk")?;
        let rows = chunk.blocks.len();
        // Either the plain `logs` column or the dictionary pair must be
        // row-parallel (and ids must land inside the address table).
        let columns_ok = if chunk.logs.is_empty() && rows > 0 {
            chunk.addr_ids.len() == rows
                && chunk.events.len() == rows
                && chunk
                    .addr_ids
                    .iter()
                    .all(|&id| (id as usize) < self.postings.addrs.len())
        } else {
            chunk.logs.len() == rows && chunk.addr_ids.is_empty() && chunk.events.is_empty()
        };
        if chunk.start_row != chunk_no * self.header.chunk_rows
            || chunk.tx_indices.len() != rows
            || chunk.tx_hashes.len() != rows
            || !columns_ok
            || rows == 0
        {
            return Err(codec(
                &self.path,
                format!("chunk {chunk_no} is inconsistent"),
            ));
        }
        Ok(chunk)
    }
}

/// One log row resolved from a chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct RowData {
    pub block: u64,
    pub tx_index: u32,
    pub tx_hash: TxHash,
    pub log: Log,
}

/// Random access to a sidecar's rows. `pages_read` counts a chunk each
/// time access moves onto it, whether it was read from disk or already
/// kept by the index, so ascending row access (the planner's pattern)
/// counts each touched chunk exactly once.
pub struct RowReader<'a> {
    index: &'a SegmentIndex,
    /// The sidecar file, opened on the first chunk not yet kept.
    file: Option<CommittedFile>,
    current: Option<(u32, &'a RowChunk)>,
    /// Chunk frames touched so far.
    pub pages_read: u64,
}

impl RowReader<'_> {
    /// Fetch row `row`, reading its chunk frame if the index does not
    /// hold it yet.
    pub fn get(&mut self, row: u32) -> Result<RowData, StoreError> {
        let index = self.index;
        let chunk_no = row / index.header.chunk_rows;
        let chunk = match self.current {
            Some((no, chunk)) if no == chunk_no => chunk,
            _ => {
                let chunk = index.chunk(&mut self.file, chunk_no)?;
                self.pages_read += 1;
                self.current = Some((chunk_no, chunk));
                chunk
            }
        };
        let i = (row - chunk.start_row) as usize;
        let log = match chunk.logs.get(i) {
            Some(log) => Some(log.clone()),
            // Dictionary-compressed chunk: rebuild the log from the
            // address table and the event column.
            None => match (chunk.addr_ids.get(i), chunk.events.get(i)) {
                (Some(&aid), Some(event)) => {
                    self.index
                        .postings
                        .addrs
                        .get(aid as usize)
                        .map(|&address| Log {
                            address,
                            event: event.clone(),
                        })
                }
                _ => None,
            },
        };
        match (
            chunk.blocks.get(i),
            chunk.tx_indices.get(i),
            chunk.tx_hashes.get(i),
            log,
        ) {
            (Some(&block), Some(&tx_index), Some(&tx_hash), Some(log)) => Ok(RowData {
                block,
                tx_index,
                tx_hash,
                log,
            }),
            _ => Err(codec(
                &self.index.path,
                format!("row {row} out of chunk bounds"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::segment_file_name;
    use crate::testutil::{scratch_dir, test_block};
    use mev_types::Address;

    fn entries(n_blocks: u64, txs: u64) -> Vec<BlockEntry> {
        let g = 10_000_000;
        (0..n_blocks)
            .map(|i| {
                let (block, receipts) = test_block(g + i, txs);
                BlockEntry { block, receipts }
            })
            .collect()
    }

    fn meta_with_index(dir: &Path, entries: &[BlockEntry]) -> SegmentMeta {
        let builder = IndexBuilder::from_entries(entries);
        let first = entries[0].block.header.number;
        let (im, _) = builder
            .write_named_with(dir, index_file_name(0), 0, first, false)
            .unwrap();
        meta_of(entries, im)
    }

    /// Segment 0's meta over `entries`, its sidecar `im`.
    fn meta_of(entries: &[BlockEntry], im: IndexMeta) -> SegmentMeta {
        SegmentMeta {
            index: 0,
            file: segment_file_name(0),
            first_block: entries[0].block.header.number,
            last_block: entries.last().unwrap().block.header.number,
            blocks: entries.len() as u64,
            tx_count: 0,
            log_count: im.rows,
            bytes: 0,
            bloom: crate::bloom::LogBloom::new(),
            postings: Some(im),
        }
    }

    #[test]
    fn builder_rows_are_scan_order_and_round_trip() {
        let dir = scratch_dir("postings-roundtrip");
        let es = entries(6, 2);
        let meta = meta_with_index(&dir, &es);
        let idx = SegmentIndex::open(&dir, &meta).unwrap();
        assert_eq!(idx.pages_read, 2);
        // Walk every row and compare against a manual scan.
        let mut expect = Vec::new();
        for e in &es {
            for r in &e.receipts {
                for log in &r.logs {
                    expect.push(RowData {
                        block: e.block.header.number,
                        tx_index: r.index,
                        tx_hash: r.tx_hash,
                        log: log.clone(),
                    });
                }
            }
        }
        assert_eq!(idx.header.rows, expect.len() as u64);
        let mut rows = idx.rows();
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(&rows.get(i as u32).unwrap(), want);
        }
        // 6 blocks × 2 txs ≤ 512 rows → a single chunk, read once.
        assert_eq!(rows.pages_read, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn postings_select_the_scan_matches() {
        let dir = scratch_dir("postings-select");
        let es = entries(8, 2);
        let meta = meta_with_index(&dir, &es);
        let idx = SegmentIndex::open(&dir, &meta).unwrap();
        // test_block: every tx emits a Transfer from A(1); even blocks'
        // first tx also emits a Swap from A(2).
        let swaps = idx.rows_for_filter(&LogFilter::new().address(Address::from_index(2)));
        let total: u32 = swaps.iter().map(|(_, len)| len).sum();
        assert_eq!(total, 4, "4 even blocks emit one swap each");
        let by_kind = idx.rows_for_filter(&LogFilter::new().kind(EventKind::Swap));
        assert_eq!(swaps, by_kind, "A(2) emits exactly the swaps");
        let cross = idx.rows_for_filter(
            &LogFilter::new()
                .address(Address::from_index(2))
                .kind(EventKind::Transfer),
        );
        assert!(cross.is_empty(), "A(2) never emits transfers");
        let all = idx.rows_for_filter(&LogFilter::new());
        assert_eq!(all, vec![(0, idx.header.rows as u32)]);
        // Absent address selects nothing.
        assert!(idx
            .rows_for_filter(&LogFilter::new().address(Address::from_index(999)))
            .is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_chunk_sidecars_seek_per_chunk() {
        let dir = scratch_dir("postings-chunks");
        // 300 blocks × 2 txs ≈ 750 rows → 2 chunks of 512.
        let es = entries(300, 2);
        let meta = meta_with_index(&dir, &es);
        let idx = SegmentIndex::open(&dir, &meta).unwrap();
        assert!(idx.header.rows > ROWS_PER_CHUNK as u64);
        assert_eq!(idx.postings.chunk_offsets.len(), 2);
        let mut rows = idx.rows();
        let first = rows.get(0).unwrap();
        assert_eq!(first.block, 10_000_000);
        let last = rows.get((idx.header.rows - 1) as u32).unwrap();
        assert_eq!(last.block, 10_000_000 + 299);
        assert_eq!(rows.pages_read, 2);
        // Re-reading within the cached chunk costs nothing.
        rows.get((idx.header.rows - 2) as u32).unwrap();
        assert_eq!(rows.pages_read, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_index_built_in_memory_holds_what_open_holds() {
        let dir = scratch_dir("postings-in-memory");
        // Two row chunks.
        let es = entries(300, 2);
        let meta = meta_with_index(&dir, &es);
        let opened = SegmentIndex::open(&dir, &meta).unwrap();
        let built = IndexBuilder::from_entries(&es).to_index(0, meta.first_block, PathBuf::new());
        assert_eq!(built.header, opened.header);
        assert_eq!(built.postings, opened.postings);
        assert!(built.chunks.iter().all(|c| c.get().is_some()));
        let (mut b, mut o) = (built.rows(), opened.rows());
        // One row past the end fails on both.
        for row in 0..=opened.header.rows as u32 {
            assert_eq!(b.get(row).ok(), o.get(row).ok(), "row {row}");
        }
        assert_eq!(
            (built.pages_read, b.pages_read),
            (opened.pages_read, o.pages_read)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_anywhere_is_rejected() {
        let dir = scratch_dir("postings-bitflip");
        let es = entries(4, 2);
        let meta = meta_with_index(&dir, &es);
        let path = dir.join(&meta.postings.as_ref().unwrap().file);
        let clean = fs::read(&path).unwrap();
        // Flip a bit in each structural region: header frame, postings
        // frame, and the last chunk frame.
        for pos in [12usize, clean.len() / 2, clean.len() - 3] {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x10;
            fs::write(&path, &bytes).unwrap();
            let outcome = SegmentIndex::open(&dir, &meta).and_then(|idx| {
                let ranges = idx.rows_for_filter(&LogFilter::new());
                let mut rows = idx.rows();
                for (start, len) in ranges {
                    for row in start..start + len {
                        rows.get(row)?;
                    }
                }
                Ok(())
            });
            assert!(outcome.is_err(), "bitflip at byte {pos} went undetected");
        }
        fs::write(&path, &clean).unwrap();
        assert!(SegmentIndex::open(&dir, &meta).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_ranges_coalesces_and_sorts() {
        assert_eq!(merge_ranges(vec![]), vec![]);
        assert_eq!(
            merge_ranges(vec![(5, 2), (0, 3), (3, 2)]),
            vec![(0, 7)],
            "adjacent runs coalesce"
        );
        assert_eq!(
            merge_ranges(vec![(10, 5), (0, 2), (12, 1)]),
            vec![(0, 2), (10, 5)],
            "contained runs collapse"
        );
    }

    #[test]
    fn dict_compressed_rows_round_trip_bit_identically() {
        let dir = scratch_dir("postings-dict");
        let es = entries(300, 2);
        let builder = IndexBuilder::from_entries(&es);
        let first = es[0].block.header.number;
        let (plain, _) = builder
            .write_named_with(&dir, "plain.idx".to_string(), 0, first, false)
            .unwrap();
        let (dict, _) = builder
            .write_named_with(&dir, "dict.idx".to_string(), 0, first, true)
            .unwrap();
        assert!(dict.dict_addrs && !plain.dict_addrs);
        assert!(
            dict.bytes < plain.bytes,
            "dictionary column should shrink the sidecar ({} vs {})",
            dict.bytes,
            plain.bytes
        );
        let pi = SegmentIndex::open(&dir, &meta_of(&es, plain)).unwrap();
        let di = SegmentIndex::open(&dir, &meta_of(&es, dict)).unwrap();
        let (mut pr, mut dr) = (pi.rows(), di.rows());
        for row in 0..pi.header.rows as u32 {
            assert_eq!(pr.get(row).unwrap(), dr.get(row).unwrap(), "row {row}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encode_is_deterministic() {
        let es = entries(5, 3);
        let a = IndexBuilder::from_entries(&es);
        let b = IndexBuilder::from_entries(&es);
        let pa = a.encode_with(0, 10_000_000, false);
        let pb = b.encode_with(0, 10_000_000, false);
        assert_eq!(pa, pb);
    }
}
