//! The store's committed state: one `MANIFEST` file under the store
//! root, a [`snapshot_log`](crate::snapshot_log) whose snapshot is the
//! whole [`Manifest`] and whose deltas are [`ManifestChange`]s.
//!
//! A commit appends one delta — the segment metas that are new or
//! changed and the rollup rows that changed — and `sync_data`s it, after
//! every file those metas name is synced; when the deltas would outgrow
//! both the snapshot and
//! [`SNAPSHOT_FLOOR`](crate::snapshot_log::SNAPSHOT_FLOOR),
//! [`StoreWriter`](crate::StoreWriter) rewrites the file as one fresh
//! snapshot instead (temp + `sync_data` + rename), and compaction always
//! does. [`Manifest::load`] folds in every whole delta that carries the
//! next seq and stops at the first that does not, so a torn last delta is
//! ignored. Segment bytes past what the manifest records, and files it
//! does not name, are uncommitted crash residue and are ignored (and
//! truncated or swept by the next writer). A reader therefore always
//! observes either the old or the new committed state, never a torn one.
//!
//! Format 3 and older kept the snapshot in `MANIFEST.json`; a directory
//! that holds one is refused with [`StoreError::UnsupportedVersion`],
//! never opened or overwritten as a new store. A `MANIFEST` of another
//! version (format 4) is refused the same way, from its snapshot's
//! leading version field, before anything else is decoded or cut.

use crate::bloom::LogBloom;
use crate::error::StoreError;
use crate::postings::IndexMeta;
use crate::rollup::{RollupBlock, RollupBuilder};
use crate::snapshot_log::{self, Logged, SnapshotLog};
use mev_types::codec::{self, Decode, DecodeError, Encode, Reader};
use mev_types::Timeline;
use std::path::Path;

/// On-disk format version this build reads and writes. Version 2 moved
/// segment and sidecar frame payloads from JSON to the binary codec of
/// `mev_types::codec`; version 3 added the manifest journal and appended
/// tail sidecar runs (`IndexMeta::offset`); version 4 made the manifest
/// one codec snapshot-and-delta file; version 5 dropped the tail's runs
/// file (the open tail has no sidecar, `SegmentMeta::postings` is
/// `None`) and with it `IndexMeta::offset`. Older stores are refused,
/// not converted.
pub const FORMAT_VERSION: u32 = 5;
/// Manifest file name under the store root.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// The manifest snapshot of format 3 and older.
const LEGACY_MANIFEST_FILE: &str = "MANIFEST.json";
/// Magic string embedded in the manifest.
pub const FORMAT_MAGIC: &str = "mev-store";

/// Zone map plus bloom filter for one segment — everything a scan needs
/// to decide whether to read the segment's bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentMeta {
    /// Position in the store; also determines the file name.
    pub index: u64,
    /// File name relative to the store root.
    pub file: String,
    /// Zone map: lowest block height in the segment.
    pub first_block: u64,
    /// Zone map: highest block height in the segment.
    pub last_block: u64,
    /// Blocks committed in this segment.
    pub blocks: u64,
    /// Transactions across the committed blocks.
    pub tx_count: u64,
    /// Logs across the committed blocks.
    pub log_count: u64,
    /// Committed byte length of the segment file.
    pub bytes: u64,
    /// Bloom filter over (address, event-kind) of the committed logs.
    pub bloom: LogBloom,
    /// The committed sidecar index, `seg-XXXXX.idx`; `None` exactly for
    /// the open partial tail, which has no sidecar (readers build its
    /// index in memory from its committed entries).
    pub postings: Option<IndexMeta>,
}

impl Encode for SegmentMeta {
    fn encode(&self, out: &mut Vec<u8>) {
        let SegmentMeta {
            index,
            file,
            first_block,
            last_block,
            blocks,
            tx_count,
            log_count,
            bytes,
            bloom,
            postings,
        } = self;
        index.encode(out);
        file.encode(out);
        first_block.encode(out);
        last_block.encode(out);
        blocks.encode(out);
        tx_count.encode(out);
        log_count.encode(out);
        bytes.encode(out);
        bloom.encode(out);
        postings.encode(out);
    }
}

impl Decode for SegmentMeta {
    // Ten fields of at least one byte each.
    const MIN_LEN: usize = 10;

    fn decode(r: &mut Reader<'_>) -> Result<SegmentMeta, DecodeError> {
        Ok(SegmentMeta {
            index: u64::decode(r)?,
            file: String::decode(r)?,
            first_block: u64::decode(r)?,
            last_block: u64::decode(r)?,
            blocks: u64::decode(r)?,
            tx_count: u64::decode(r)?,
            log_count: u64::decode(r)?,
            bytes: u64::decode(r)?,
            bloom: LogBloom::decode(r)?,
            postings: Option::decode(r)?,
        })
    }
}

/// What one commit changed: a manifest delta.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestChange {
    /// Segment metas that are new or changed, ascending by position.
    /// Each replaces the meta at its `index`, or extends the list.
    pub segments: Vec<SegmentMeta>,
    /// The rollup rows that changed ([`RollupBlock::upsert`]).
    pub rollups: RollupBlock,
}

impl Encode for ManifestChange {
    fn encode(&self, out: &mut Vec<u8>) {
        let ManifestChange { segments, rollups } = self;
        segments.encode(out);
        rollups.encode(out);
    }
}

impl Decode for ManifestChange {
    fn decode(r: &mut Reader<'_>) -> Result<ManifestChange, DecodeError> {
        Ok(ManifestChange {
            segments: Vec::decode(r)?,
            rollups: RollupBlock::decode(r)?,
        })
    }
}

impl SegmentMeta {
    /// Does the zone map overlap the inclusive height window?
    pub fn overlaps(&self, from: u64, to: u64) -> bool {
        self.first_block <= to && self.last_block >= from
    }
}

/// The committed state of a store.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Always [`FORMAT_MAGIC`].
    pub format: String,
    /// On-disk format version; bumped on incompatible layout changes.
    pub version: u32,
    /// Monotone commit counter — each successful commit increments it.
    pub commit_seq: u64,
    /// Target blocks per sealed segment.
    pub segment_blocks: u64,
    /// The block-number ↔ wall-clock mapping of the archived chain.
    pub timeline: Timeline,
    /// Committed segments in height order; the last may be partial.
    pub segments: Vec<SegmentMeta>,
    /// Pre-aggregated per-address / per-kind / per-epoch rollups over
    /// every committed block. Rides the same atomic commit as the
    /// segment list, so it is never out of sync with the data.
    pub rollups: RollupBlock,
}

impl Encode for Manifest {
    fn encode(&self, out: &mut Vec<u8>) {
        let Manifest {
            format,
            version,
            commit_seq,
            segment_blocks,
            timeline,
            segments,
            rollups,
        } = self;
        format.encode(out);
        version.encode(out);
        commit_seq.encode(out);
        segment_blocks.encode(out);
        timeline.encode(out);
        segments.encode(out);
        rollups.encode(out);
    }
}

impl Decode for Manifest {
    fn decode(r: &mut Reader<'_>) -> Result<Manifest, DecodeError> {
        Ok(Manifest {
            format: String::decode(r)?,
            version: u32::decode(r)?,
            commit_seq: u64::decode(r)?,
            segment_blocks: u64::decode(r)?,
            timeline: Timeline::decode(r)?,
            segments: Vec::decode(r)?,
            rollups: RollupBlock::decode(r)?,
        })
    }
}

impl Logged for Manifest {
    type Change = ManifestChange;

    /// A manifest of another format version is refused from its leading
    /// `(format, version)` alone: the rest may not decode under this
    /// build's layout, and a misread delta must not be cut off.
    fn check_snapshot(payload: &[u8]) -> Result<(), StoreError> {
        match codec::from_prefix::<(String, u32)>(payload) {
            Ok((_, found)) if found != FORMAT_VERSION => Err(StoreError::UnsupportedVersion {
                found,
                supported: FORMAT_VERSION,
            }),
            _ => Ok(()),
        }
    }

    /// Apply one commit's change on top of the state it follows.
    fn fold(&mut self, change: ManifestChange) -> Result<(), StoreError> {
        for meta in change.segments {
            let at = meta.index as usize;
            match at.cmp(&self.segments.len()) {
                std::cmp::Ordering::Less => self.segments[at] = meta,
                std::cmp::Ordering::Equal => self.segments.push(meta),
                std::cmp::Ordering::Greater => {
                    return Err(StoreError::ManifestInvalid {
                        detail: format!(
                            "a delta places segment {at} after {} segments",
                            self.segments.len()
                        ),
                    })
                }
            }
        }
        self.rollups.upsert(&change.rollups);
        // Saturating: the seq was read from disk.
        self.commit_seq = self.commit_seq.saturating_add(1);
        Ok(())
    }
}

impl Manifest {
    pub fn new(timeline: Timeline, segment_blocks: u64) -> Manifest {
        Manifest {
            format: FORMAT_MAGIC.to_string(),
            version: FORMAT_VERSION,
            commit_seq: 0,
            segment_blocks: segment_blocks.max(1),
            timeline,
            segments: Vec::new(),
            rollups: RollupBuilder::new().to_block(),
        }
    }

    /// Height of the last committed block, if any.
    pub fn head_block(&self) -> Option<u64> {
        self.segments.last().map(|s| s.last_block)
    }

    /// Total committed blocks.
    pub fn block_count(&self) -> u64 {
        self.segments.iter().map(|s| s.blocks).sum()
    }

    /// Total committed transactions.
    pub fn tx_count(&self) -> u64 {
        self.segments.iter().map(|s| s.tx_count).sum()
    }

    /// Total committed logs.
    pub fn log_count(&self) -> u64 {
        // Saturating: validation calls this on counts read from disk.
        self.segments
            .iter()
            .fold(0, |n, s| n.saturating_add(s.log_count))
    }

    /// The segment whose zone map contains `block`, if committed.
    pub fn segment_for(&self, block: u64) -> Option<&SegmentMeta> {
        // Segments are contiguous and sorted; binary search the zone maps.
        let idx = self.segments.partition_point(|s| s.last_block < block);
        self.segments
            .get(idx)
            .filter(|s| s.first_block <= block && block <= s.last_block)
    }

    /// Structural validation: version, magic, contiguity of zone maps,
    /// bloom width.
    pub fn validate(&self) -> Result<(), StoreError> {
        self.validate_from(0)?;
        self.validate_rollups()
    }

    /// [`Manifest::validate`] limited to the header and the segments from
    /// position `first` on (plus the one before it, which may have just
    /// become interior) — what a delta commit can have changed.
    pub(crate) fn validate_from(&self, first: usize) -> Result<(), StoreError> {
        if self.format != FORMAT_MAGIC {
            return Err(StoreError::ManifestInvalid {
                detail: format!("format {:?} is not {FORMAT_MAGIC:?}", self.format),
            });
        }
        if self.version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: self.version,
                supported: FORMAT_VERSION,
            });
        }
        if self.segment_blocks == 0 {
            return Err(StoreError::ManifestInvalid {
                detail: "segment_blocks is zero".to_string(),
            });
        }
        let start = first.saturating_sub(1).min(self.segments.len());
        let mut expected = match start.checked_sub(1).and_then(|i| self.segments.get(i)) {
            Some(prev) => prev.last_block.saturating_add(1),
            None => self.timeline.genesis_number,
        };
        for (i, seg) in self.segments.iter().enumerate().skip(start) {
            if seg.index != i as u64 {
                return Err(StoreError::ManifestInvalid {
                    detail: format!("segment {i} carries index {}", seg.index),
                });
            }
            if seg.first_block != expected {
                return Err(StoreError::ManifestInvalid {
                    detail: format!(
                        "segment {i} starts at block {} (expected {expected})",
                        seg.first_block
                    ),
                });
            }
            if seg.last_block < seg.first_block
                || Some(seg.blocks) != (seg.last_block - seg.first_block).checked_add(1)
            {
                return Err(StoreError::ManifestInvalid {
                    detail: format!(
                        "segment {i} zone map inconsistent: [{}, {}] with {} blocks",
                        seg.first_block, seg.last_block, seg.blocks
                    ),
                });
            }
            if !seg.bloom.is_well_formed() {
                return Err(StoreError::ManifestInvalid {
                    detail: format!("segment {i} bloom has the wrong width"),
                });
            }
            // Only the final segment may be partial. Compacted tiers are
            // whole multiples of the base span, so interior segments
            // hold a positive multiple of `segment_blocks`.
            if i + 1 < self.segments.len()
                && (seg.blocks == 0 || seg.blocks % self.segment_blocks != 0)
            {
                return Err(StoreError::ManifestInvalid {
                    detail: format!(
                        "interior segment {i} holds {} blocks (sealed segments hold a positive multiple of {})",
                        seg.blocks, self.segment_blocks
                    ),
                });
            }
            // Only the open partial tail has no sidecar.
            let open_tail = i + 1 == self.segments.len() && seg.blocks < self.segment_blocks;
            let indexed = match &seg.postings {
                None => open_tail,
                Some(idx) => {
                    !open_tail
                        && idx.rows == seg.log_count
                        && idx.chunk_rows != 0
                        && !idx.file.is_empty()
                        && idx.bytes != 0
                }
            };
            if !indexed {
                return Err(StoreError::ManifestInvalid {
                    detail: format!(
                        "segment {i} index meta inconsistent: {:?} for {} logs (open tail: {open_tail})",
                        seg.postings, seg.log_count
                    ),
                });
            }
            expected = seg.last_block.saturating_add(1);
        }
        Ok(())
    }

    fn validate_rollups(&self) -> Result<(), StoreError> {
        let rollups = &self.rollups;
        if rollups.head_block != self.head_block() {
            return Err(StoreError::ManifestInvalid {
                detail: format!(
                    "rollups cover head {:?} but the store head is {:?}",
                    rollups.head_block,
                    self.head_block()
                ),
            });
        }
        if rollups.logs != self.log_count() {
            return Err(StoreError::ManifestInvalid {
                detail: format!(
                    "rollups fold {} logs but segments commit {}",
                    rollups.logs,
                    self.log_count()
                ),
            });
        }
        if rollups
            .per_kind
            .last()
            .is_some_and(|r| r.tag as usize >= mev_chain::EventKind::ALL.len())
        {
            return Err(StoreError::ManifestInvalid {
                detail: "rollups carry an unknown kind tag".to_string(),
            });
        }
        if rollups.per_kind.windows(2).any(|w| w[0].tag >= w[1].tag)
            || rollups.per_addr.windows(2).any(|w| w[0].addr >= w[1].addr)
            || rollups
                .per_epoch
                .windows(2)
                .any(|w| w[0].month >= w[1].month)
        {
            return Err(StoreError::ManifestInvalid {
                detail: "rollup tables are not strictly sorted".to_string(),
            });
        }
        Ok(())
    }

    /// Load the manifest under `root`, folding in its replayable deltas,
    /// and validate the result.
    pub fn load(root: &Path) -> Result<Manifest, StoreError> {
        let manifest = snapshot_log::load::<Manifest>(&root.join(MANIFEST_FILE))
            .map_err(invalid)?
            .ok_or_else(|| missing(root))?;
        manifest.validate()?;
        Ok(manifest)
    }

    /// [`Manifest::load`] for a writer: also the append side of the
    /// file, with any torn tail cut off.
    pub(crate) fn open(root: &Path) -> Result<(Manifest, SnapshotLog), StoreError> {
        let (manifest, log) = SnapshotLog::open::<Manifest>(&root.join(MANIFEST_FILE))
            .map_err(invalid)?
            .ok_or_else(|| missing(root))?;
        manifest.validate()?;
        Ok((manifest, log))
    }
}

/// Refuse to treat `root` as storeless when it holds a format-3 (or
/// older) manifest: its segment files belong to a store this build
/// cannot read.
pub(crate) fn refuse_legacy(root: &Path) -> Result<(), StoreError> {
    if root.join(LEGACY_MANIFEST_FILE).exists() {
        return Err(StoreError::UnsupportedVersion {
            found: 3,
            supported: FORMAT_VERSION,
        });
    }
    Ok(())
}

/// The error for a root with no `MANIFEST`.
fn missing(root: &Path) -> StoreError {
    match refuse_legacy(root) {
        Err(e) => e,
        Ok(()) => StoreError::MissingManifest {
            root: root.to_path_buf(),
        },
    }
}

/// A manifest file that frames or decodes badly is an invalid manifest.
fn invalid(e: StoreError) -> StoreError {
    match e {
        StoreError::TruncatedFrame { .. }
        | StoreError::ChecksumMismatch { .. }
        | StoreError::Codec { .. } => StoreError::ManifestInvalid {
            detail: e.to_string(),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(index: u64, first: u64, last: u64) -> SegmentMeta {
        SegmentMeta {
            index,
            file: format!("seg-{index:05}.seg"),
            first_block: first,
            last_block: last,
            blocks: last - first + 1,
            tx_count: 0,
            log_count: 0,
            bytes: 0,
            bloom: LogBloom::new(),
            postings: Some(IndexMeta {
                file: format!("seg-{index:05}.idx"),
                bytes: 1,
                rows: 0,
                addrs: 0,
                chunk_rows: 512,
                dict_addrs: false,
            }),
        }
    }

    fn manifest_with(segments: Vec<SegmentMeta>) -> Manifest {
        let mut m = Manifest::new(Timeline::paper_span(100), 4);
        m.segments = segments;
        // The open partial tail has no sidecar.
        if let Some(tail) = m.segments.last_mut().filter(|s| s.blocks < 4) {
            tail.postings = None;
        }
        m.rollups.head_block = m.head_block();
        m
    }

    #[test]
    fn validate_accepts_contiguous_segments() {
        let g = 10_000_000;
        let m = manifest_with(vec![
            seg(0, g, g + 3),
            seg(1, g + 4, g + 7),
            seg(2, g + 8, g + 9),
        ]);
        assert!(m.validate().is_ok());
        assert_eq!(m.head_block(), Some(g + 9));
        assert_eq!(m.block_count(), 10);
    }

    #[test]
    fn validate_rejects_gaps_and_bad_indices() {
        let g = 10_000_000;
        let gap = manifest_with(vec![seg(0, g, g + 3), seg(1, g + 5, g + 8)]);
        assert!(matches!(
            gap.validate(),
            Err(StoreError::ManifestInvalid { .. })
        ));
        let idx = manifest_with(vec![seg(3, g, g + 3)]);
        assert!(matches!(
            idx.validate(),
            Err(StoreError::ManifestInvalid { .. })
        ));
        let interior_partial = manifest_with(vec![seg(0, g, g + 1), seg(1, g + 2, g + 5)]);
        assert!(matches!(
            interior_partial.validate(),
            Err(StoreError::ManifestInvalid { .. })
        ));
    }

    #[test]
    fn validate_rejects_foreign_versions() {
        let mut m = manifest_with(vec![]);
        m.version = 99;
        assert!(matches!(
            m.validate(),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
        let mut m2 = manifest_with(vec![]);
        m2.format = "something-else".to_string();
        assert!(matches!(
            m2.validate(),
            Err(StoreError::ManifestInvalid { .. })
        ));
    }

    #[test]
    fn segment_for_uses_zone_maps() {
        let g = 10_000_000;
        let m = manifest_with(vec![seg(0, g, g + 3), seg(1, g + 4, g + 7)]);
        assert_eq!(m.segment_for(g).map(|s| s.index), Some(0));
        assert_eq!(m.segment_for(g + 3).map(|s| s.index), Some(0));
        assert_eq!(m.segment_for(g + 4).map(|s| s.index), Some(1));
        assert_eq!(m.segment_for(g + 7).map(|s| s.index), Some(1));
        assert!(m.segment_for(g + 8).is_none());
        assert!(m.segment_for(g - 1).is_none());
    }

    #[test]
    fn validate_checks_index_meta_and_rollups() {
        let g = 10_000_000;
        // Index meta whose row count disagrees with the segment's logs.
        let mut bad_idx = manifest_with(vec![seg(0, g, g + 3)]);
        bad_idx.segments[0].postings.as_mut().unwrap().rows = 7;
        assert!(matches!(
            bad_idx.validate(),
            Err(StoreError::ManifestInvalid { .. })
        ));
        // A sealed segment without its sidecar, and an open tail with one.
        for last in [g + 3, g + 1] {
            let mut m = manifest_with(vec![seg(0, g, last)]);
            m.segments[0].postings = seg(0, g, g).postings.filter(|_| last == g + 1);
            assert!(matches!(
                m.validate(),
                Err(StoreError::ManifestInvalid { .. })
            ));
        }
        // Rollups whose head lags the committed head.
        let mut stale = manifest_with(vec![seg(0, g, g + 3)]);
        stale.rollups.head_block = Some(g);
        assert!(matches!(
            stale.validate(),
            Err(StoreError::ManifestInvalid { .. })
        ));
        // In-sync rollups pass.
        assert!(manifest_with(vec![seg(0, g, g + 3)]).validate().is_ok());
    }

    #[test]
    fn load_missing_garbage_and_format_3_manifests() {
        let dir = crate::testutil::scratch_dir("manifest-garbage");
        assert!(matches!(
            Manifest::load(&dir),
            Err(StoreError::MissingManifest { .. })
        ));
        std::fs::write(dir.join(MANIFEST_FILE), b"{ not a frame").unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(StoreError::ManifestInvalid { .. })
        ));
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        std::fs::write(dir.join(LEGACY_MANIFEST_FILE), b"{}").unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(StoreError::UnsupportedVersion { found: 3, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
