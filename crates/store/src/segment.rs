//! Segment files: an append-only run of frames holding a fixed span of
//! blocks.
//!
//! Layout: one `SegmentHeader` frame, then one `BlockEntry` frame per
//! block in height order. Sealed segments hold exactly
//! `Manifest::segment_blocks` blocks; the tail segment grows in place
//! until it seals. The manifest's per-segment `bytes` field bounds what a
//! reader may consume, so uncommitted tail bytes after a crash are
//! invisible (and truncated before the next append).
//!
//! Alongside each segment the writer accumulates its sidecar index (see
//! [`crate::postings`]) from the same appended entries, and writes it
//! only when the segment seals: the compact `seg-NNNNN.idx`, once, under
//! its final name. The open tail has no sidecar. Nothing here syncs: the
//! store writer syncs every file written since its last commit just
//! before that commit's point, and the [`crate::postings::IndexMeta`]
//! naming a sealed segment's sidecar rides the manifest — so a crash can
//! never commit a sealed segment without its matching index.

use crate::bloom::LogBloom;
use crate::error::StoreError;
use crate::frame::{seal_frame, CommittedFile, SliceFrameReader, FRAME_HEADER_BYTES};
use crate::manifest::{SegmentMeta, FORMAT_VERSION};
use crate::postings::{IndexBuilder, IndexMeta};
use crate::snapshot_log::Syncs;
use mev_types::codec::{Decode, DecodeError, Encode, Reader};
use mev_types::{Block, Receipt};
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Frame kind of the per-segment header.
pub const FRAME_SEGMENT_HEADER: u8 = 1;
/// Frame kind of a block entry.
pub const FRAME_BLOCK_ENTRY: u8 = 2;

/// File name of segment `index` under the store root.
pub fn segment_file_name(index: u64) -> String {
    format!("seg-{index:05}.seg")
}

/// File name of a compacted tier written at commit sequence `seq`,
/// landing at position `pos`. The `seg-c` prefix is disjoint from the
/// `seg-NNNNN` namespace, and seeding by the (monotone) commit sequence
/// keeps names fresh across crashed compactions.
pub fn compacted_file_name(seq: u64, pos: u64) -> String {
    format!("seg-c{seq}-{pos:05}.seg")
}

/// First frame of every segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentHeader {
    pub version: u32,
    pub index: u64,
    pub first_block: u64,
}

impl Encode for SegmentHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        let SegmentHeader {
            version,
            index,
            first_block,
        } = self;
        version.encode(out);
        index.encode(out);
        first_block.encode(out);
    }
}

impl Decode for SegmentHeader {
    fn decode(r: &mut Reader<'_>) -> Result<SegmentHeader, DecodeError> {
        Ok(SegmentHeader {
            version: u32::decode(r)?,
            index: u64::decode(r)?,
            first_block: u64::decode(r)?,
        })
    }
}

/// One archived block: the block body plus its receipts.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockEntry {
    pub block: Block,
    pub receipts: Vec<Receipt>,
}

impl Encode for BlockEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        let BlockEntry { block, receipts } = self;
        block.encode(out);
        receipts.encode(out);
    }
}

impl Decode for BlockEntry {
    fn decode(r: &mut Reader<'_>) -> Result<BlockEntry, DecodeError> {
        Ok(BlockEntry {
            block: Block::decode(r)?,
            receipts: Vec::decode(r)?,
        })
    }
}

/// Open (appending) writer over one segment file, accumulating the zone
/// map and bloom that will become its [`SegmentMeta`].
pub struct SegmentWriter {
    path: PathBuf,
    /// On-disk file name; fixed at creation and never changed by a
    /// [`SegmentWriter::renumber`] (compaction shifts positions, not
    /// files).
    file_name: String,
    file: fs::File,
    index: u64,
    first_block: u64,
    last_block: Option<u64>,
    blocks: u64,
    tx_count: u64,
    log_count: u64,
    bytes: u64,
    bloom: LogBloom,
    index_builder: IndexBuilder,
    /// Sidecar shape once [`SegmentWriter::write_index`] sealed the
    /// segment; `None` while it is the open tail.
    index_meta: Option<IndexMeta>,
    /// One frame's bytes: its header, then the payload encoded in place.
    /// Reused by every frame, so an append allocates nothing once it has
    /// grown to the largest frame.
    scratch: Vec<u8>,
}

impl SegmentWriter {
    /// Start a fresh segment file (truncating any crash residue with the
    /// same name) and write its header frame.
    pub fn create(root: &Path, index: u64, first_block: u64) -> Result<SegmentWriter, StoreError> {
        SegmentWriter::create_named(root, segment_file_name(index), index, first_block)
    }

    /// [`SegmentWriter::create`] under an explicit file name — compaction
    /// writes merged tiers into the `seg-c…` namespace so a crash can
    /// never clobber a live segment file.
    pub fn create_named(
        root: &Path,
        file_name: String,
        index: u64,
        first_block: u64,
    ) -> Result<SegmentWriter, StoreError> {
        let path = root.join(&file_name);
        let file =
            fs::File::create(&path).map_err(|e| StoreError::io("create segment", &path, e))?;
        let mut w = SegmentWriter {
            path,
            file_name,
            file,
            index,
            first_block,
            last_block: None,
            blocks: 0,
            tx_count: 0,
            log_count: 0,
            bytes: 0,
            bloom: LogBloom::new(),
            index_builder: IndexBuilder::new(),
            index_meta: None,
            scratch: Vec::new(),
        };
        let header = SegmentHeader {
            version: FORMAT_VERSION,
            index,
            first_block,
        };
        w.write_frame(FRAME_SEGMENT_HEADER, |out| header.encode(out))?;
        Ok(w)
    }

    /// Re-open a committed partial segment for further appends. The file
    /// is truncated to the committed length first, discarding any
    /// uncommitted tail bytes from a crashed writer. The sidecar index
    /// builder is rebuilt from the committed entries, for the seal.
    pub fn reopen(root: &Path, meta: &SegmentMeta) -> Result<SegmentWriter, StoreError> {
        let entries = read_segment(root, meta)?;
        let index_builder = IndexBuilder::from_entries(&entries);
        drop(entries);
        let path = root.join(&meta.file);
        let file = fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| StoreError::io("open segment", &path, e))?;
        file.set_len(meta.bytes)
            .map_err(|e| StoreError::io("truncate segment", &path, e))?;
        let mut file = file;
        file.seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io("seek segment", &path, e))?;
        Ok(SegmentWriter {
            path,
            file_name: meta.file.clone(),
            file,
            index: meta.index,
            first_block: meta.first_block,
            last_block: Some(meta.last_block),
            blocks: meta.blocks,
            tx_count: meta.tx_count,
            log_count: meta.log_count,
            bytes: meta.bytes,
            bloom: meta.bloom.clone(),
            index_builder,
            index_meta: None,
            scratch: Vec::new(),
        })
    }

    /// Append one frame whose payload `encode` writes, framed in place in
    /// the scratch buffer.
    fn write_frame(
        &mut self,
        kind: u8,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), StoreError> {
        let buf = &mut self.scratch;
        buf.clear();
        buf.resize(FRAME_HEADER_BYTES as usize, 0);
        encode(buf);
        let n = seal_frame(buf, kind);
        self.file
            .write_all(buf)
            .map_err(|e| StoreError::io("append frame", &self.path, e))?;
        self.bytes += n;
        Ok(())
    }

    /// Append one block and its receipts as a [`BlockEntry`] frame,
    /// updating zone map, counts, and bloom.
    pub fn append(&mut self, block: &Block, receipts: &[Receipt]) -> Result<(), StoreError> {
        let number = block.header.number;
        if block.transactions.len() != receipts.len() {
            return Err(StoreError::ReceiptCountMismatch {
                block: number,
                txs: block.transactions.len(),
                receipts: receipts.len(),
            });
        }
        // The `BlockEntry` layout, encoded from borrowed parts rather
        // than a cloned entry.
        self.write_frame(FRAME_BLOCK_ENTRY, |out| {
            block.encode(out);
            receipts.encode(out);
        })?;
        self.last_block = Some(number);
        self.blocks += 1;
        self.tx_count += block.transactions.len() as u64;
        for r in receipts {
            self.log_count += r.logs.len() as u64;
            for log in &r.logs {
                self.bloom.insert_log(log);
            }
        }
        self.index_builder.add_block(number, receipts);
        Ok(())
    }

    /// Write the segment's compact sidecar index covering every appended
    /// block, in place and unsynced (`dict_addrs`: compaction's
    /// dictionary-compressed rows), and remember its [`IndexMeta`] for
    /// the next [`SegmentWriter::meta`]. Returns the sidecar to sync
    /// before the commit that names it; `None` on an empty segment.
    pub fn write_index(
        &mut self,
        root: &Path,
        dict_addrs: bool,
    ) -> Result<Option<(fs::File, PathBuf)>, StoreError> {
        if self.last_block.is_none() {
            return Ok(None);
        }
        let name = crate::postings::sidecar_file_name(&self.file_name);
        let path = root.join(&name);
        let (meta, file) = self.index_builder.write_named_with(
            root,
            name,
            self.index,
            self.first_block,
            dict_addrs,
        )?;
        self.index_meta = Some(meta);
        Ok(Some((file, path)))
    }

    /// `sync_data` the segment file.
    pub(crate) fn sync(&self, syncs: &mut Syncs) -> Result<(), StoreError> {
        syncs.sync_file(&self.file, &self.path)
    }

    /// The segment file, to sync before the commit that names it once
    /// this writer is done with it.
    pub(crate) fn into_file(self) -> (fs::File, PathBuf) {
        (self.file, self.path)
    }

    /// Blocks appended so far.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    pub fn index(&self) -> u64 {
        self.index
    }

    /// Reassign this writer's manifest position after compaction shifted
    /// earlier segments. The on-disk file (and its header frame) keep
    /// their original name/number — readers identify content by
    /// `first_block`, not position.
    pub fn renumber(&mut self, index: u64) {
        self.index = index;
    }

    /// The zone map + bloom as of the last append, with the sidecar once
    /// the segment sealed. `None` until the first block lands — empty
    /// segments are never committed.
    pub fn meta(&self) -> Option<SegmentMeta> {
        let last_block = self.last_block?;
        Some(SegmentMeta {
            index: self.index,
            file: self.file_name.clone(),
            first_block: self.first_block,
            last_block,
            blocks: self.blocks,
            tx_count: self.tx_count,
            log_count: self.log_count,
            bytes: self.bytes,
            bloom: self.bloom.clone(),
            postings: self.index_meta.clone(),
        })
    }
}

/// Fully decode a committed segment: header check plus every block
/// entry, bounded by the manifest's committed byte count. Returns the
/// entries in height order.
///
/// The committed bytes are read into one buffer of exactly that length
/// (`CommittedFile`) and frames are CRC-verified over borrowed slices
/// of it — the decode never copies a payload.
pub fn read_segment(root: &Path, meta: &SegmentMeta) -> Result<Vec<BlockEntry>, StoreError> {
    let path = root.join(&meta.file);
    let bytes = CommittedFile::open(&path, meta.bytes)?.read(0..meta.bytes)?;
    let mut reader = SliceFrameReader::new(&bytes, &path, meta.bytes);
    let header: SegmentHeader = reader.decode_next(FRAME_SEGMENT_HEADER, "a segment header")?;
    if header.version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: header.version,
            supported: FORMAT_VERSION,
        });
    }
    // Compaction renumbers surviving segments in place without rewriting
    // them, so the header's recorded position may lag the manifest's —
    // content identity is pinned by `first_block` alone.
    if header.first_block != meta.first_block {
        return Err(StoreError::ZoneMapMismatch {
            path,
            detail: format!(
                "header says first block {}, manifest says {}",
                header.first_block, meta.first_block
            ),
        });
    }
    let mut entries: Vec<BlockEntry> = Vec::with_capacity(meta.blocks as usize);
    let mut expected = meta.first_block;
    while reader.offset() < meta.bytes {
        let entry: BlockEntry = reader.decode_next(FRAME_BLOCK_ENTRY, "a block entry")?;
        let number = entry.block.header.number;
        if number != expected {
            return Err(StoreError::ZoneMapMismatch {
                path,
                detail: format!("expected block {expected}, found {number}"),
            });
        }
        expected = number + 1;
        entries.push(entry);
    }
    if entries.len() as u64 != meta.blocks {
        return Err(StoreError::ZoneMapMismatch {
            path,
            detail: format!(
                "manifest commits {} blocks, segment holds {}",
                meta.blocks,
                entries.len()
            ),
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{scratch_dir, test_block};

    /// A writer over a fresh segment 0 holding `blocks` test blocks of
    /// `txs` transactions from block 10,000,000 on.
    fn segment(dir: &Path, blocks: u64, txs: u64) -> SegmentWriter {
        let mut w = SegmentWriter::create(dir, 0, 10_000_000).unwrap();
        for i in 0..blocks {
            let (block, receipts) = test_block(10_000_000 + i, txs);
            w.append(&block, &receipts).unwrap();
        }
        w.sync(&mut Syncs::default()).unwrap();
        w
    }

    #[test]
    fn write_seal_read_round_trip() {
        let dir = scratch_dir("segment-roundtrip");
        let g = 10_000_000;
        let meta = segment(&dir, 4, 2).meta().unwrap();
        assert_eq!(meta.blocks, 4);
        assert_eq!(meta.first_block, g);
        assert_eq!(meta.last_block, g + 3);
        assert_eq!(meta.tx_count, 8);
        let entries = read_segment(&dir, &meta).unwrap();
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[3].block.header.number, g + 3);
        assert_eq!(entries[0].receipts.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_index_commits_sidecar_and_reopen_rebuilds_it() {
        let dir = scratch_dir("segment-sidecar");
        let g = 10_000_000;
        let mut w = segment(&dir, 3, 2);
        w.write_index(&dir, false).unwrap();
        let meta = w.meta().unwrap();
        let im = meta.postings.clone().unwrap();
        // 2 transfers per block + swaps on the 2 even blocks.
        assert_eq!(im.rows, meta.log_count);
        assert_eq!(im.rows, 8);
        assert_eq!(im.addrs, 2);
        let sidecar = fs::read(dir.join(&im.file)).unwrap();
        assert_eq!(sidecar.len() as u64, im.bytes);
        drop(w);
        // A reopened writer re-derives the same index from the committed
        // entries: appending one more block and rewriting must equal a
        // one-shot build over all four.
        let mut w2 = SegmentWriter::reopen(&dir, &meta).unwrap();
        let (block, receipts) = test_block(g + 3, 2);
        w2.append(&block, &receipts).unwrap();
        w2.write_index(&dir, false).unwrap();
        let reopened = fs::read(dir.join(&im.file)).unwrap();
        let entries = read_segment(&dir, &w2.meta().unwrap()).unwrap();
        let oneshot = IndexBuilder::from_entries(&entries).encode_with(0, g, false);
        assert_eq!(reopened, oneshot);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_open_tail_writes_no_index() {
        let dir = scratch_dir("segment-tail-index");
        for blocks in 1..4 {
            let w = segment(&dir, blocks, 2);
            assert_eq!(w.meta().unwrap().postings, None);
            assert_eq!(
                fs::read_dir(&dir).unwrap().count(),
                1,
                "the segment file alone"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_continues_partial_segment() {
        let dir = scratch_dir("segment-reopen");
        let g = 10_000_000;
        let committed = segment(&dir, 1, 1).meta().unwrap();
        // Crash residue after the committed bytes must be discarded.
        {
            use std::io::Write as _;
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(dir.join(&committed.file))
                .unwrap();
            f.write_all(b"torn half-frame garbage").unwrap();
        }
        let mut w2 = SegmentWriter::reopen(&dir, &committed).unwrap();
        let (block, receipts) = test_block(g + 1, 1);
        w2.append(&block, &receipts).unwrap();
        w2.sync(&mut Syncs::default()).unwrap();
        let meta = w2.meta().unwrap();
        assert_eq!(meta.blocks, 2);
        let entries = read_segment(&dir, &meta).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].block.header.number, g + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_is_detected_on_read() {
        let dir = scratch_dir("segment-truncated");
        let meta = segment(&dir, 1, 3).meta().unwrap();
        let path = dir.join(&meta.file);
        let len = fs::metadata(&path).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        assert!(matches!(
            read_segment(&dir, &meta),
            Err(StoreError::SegmentTruncated { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflip_is_detected_on_read() {
        let dir = scratch_dir("segment-bitflip");
        let meta = segment(&dir, 1, 3).meta().unwrap();
        let path = dir.join(&meta.file);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_segment(&dir, &meta),
            Err(StoreError::ChecksumMismatch { .. }) | Err(StoreError::Codec { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_one_stores_are_refused() {
        // Version 1 carried JSON payloads; there is no second read path.
        let dir = scratch_dir("segment-v1");
        let g = 10_000_000;
        let meta = segment(&dir, 1, 2).meta().unwrap();
        let path = dir.join(&meta.file);
        let mut bytes = fs::read(&path).unwrap();
        let old = mev_types::codec::to_vec(&SegmentHeader {
            version: 1,
            index: 0,
            first_block: g,
        });
        let mut frame = Vec::new();
        crate::encode_frame(&mut frame, FRAME_SEGMENT_HEADER, &old);
        bytes[..frame.len()].copy_from_slice(&frame);
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_segment(&dir, &meta),
            Err(StoreError::UnsupportedVersion {
                found: 1,
                supported: FORMAT_VERSION
            })
        ));

        // A whole store of any earlier version is refused at its manifest.
        let store = scratch_dir("segment-v1-store");
        let chain = crate::testutil::test_chain(3, 1);
        crate::StoreWriter::create(&store, chain.timeline().clone(), 4)
            .unwrap()
            .ingest(&chain)
            .unwrap();
        let manifest = crate::Manifest::load(&store).unwrap();
        let mut log = crate::SnapshotLog::new(store.join(crate::MANIFEST_FILE));
        for old in 1..FORMAT_VERSION {
            log.snapshot(&crate::Manifest {
                version: old,
                ..manifest.clone()
            })
            .unwrap();
            assert!(matches!(
                crate::StoreReader::open(&store),
                Err(StoreError::UnsupportedVersion { found, .. }) if found == old
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&store).ok();
    }

    #[test]
    fn missing_segment_file_is_reported() {
        let dir = scratch_dir("segment-missing");
        let meta = SegmentMeta {
            index: 0,
            file: segment_file_name(0),
            first_block: 10_000_000,
            last_block: 10_000_000,
            blocks: 1,
            tx_count: 0,
            log_count: 0,
            bytes: 64,
            bloom: LogBloom::new(),
            postings: None,
        };
        assert!(matches!(
            read_segment(&dir, &meta),
            Err(StoreError::SegmentMissing { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
