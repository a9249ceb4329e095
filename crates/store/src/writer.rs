//! [`StoreWriter`]: append-only ingest into a segmented store.
//!
//! Appends are durable only after [`StoreWriter::commit`]. Nothing is
//! synced as it is written: a sealed segment's compact sidecar is written
//! once under its final name, and the writer keeps the handle of every
//! file written since its last commit. The open tail has no sidecar, so
//! a tail commit writes no index. A commit `sync_data`s each written
//! file once (the tail, sealed segments and their sidecars, compacted
//! tiers), fsyncs the directory once if it created a file, and then
//! reaches its single commit point: one delta appended to `MANIFEST` (or,
//! when the deltas would outgrow both the snapshot and
//! [`SNAPSHOT_FLOOR`](crate::snapshot_log::SNAPSHOT_FLOOR), a new
//! snapshot that replaces the file). A commit that does not snapshot
//! renames nothing. A crash anywhere before the commit point loses
//! nothing that was committed: the manifest still names the previous
//! consistent state, the next writer truncates uncommitted tail bytes
//! before appending, and `open` sweeps the files no manifest names.

use crate::error::StoreError;
use crate::manifest::{refuse_legacy, Manifest, ManifestChange, SegmentMeta, MANIFEST_FILE};
use crate::rollup::RollupBuilder;
use crate::segment::{compacted_file_name, read_segment, SegmentWriter};
use crate::snapshot_log::{Commit, SnapshotLog, Syncs};
use mev_chain::ChainStore;
use mev_types::{Block, Receipt, Timeline};
use std::fs;
use std::path::{Path, PathBuf};

/// Written files a writer holds unsynced before it syncs them ahead of
/// the commit.
const MAX_UNSYNCED: usize = 64;

/// What an [`StoreWriter::ingest`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Blocks appended by this pass.
    pub appended: u64,
    /// Blocks the store already held (incremental re-ingest skips them).
    pub skipped: u64,
    /// Segments sealed during the pass.
    pub segments_sealed: u64,
}

/// What a [`StoreWriter::compact`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionStats {
    pub segments_before: u64,
    pub segments_after: u64,
    /// Merged tier files written this pass.
    pub tiers_written: u64,
    /// Source segments that went into a merged tier.
    pub segments_merged: u64,
    /// Blocks now living in a newly-written tier.
    pub blocks_merged: u64,
    /// Replaced segment/sidecar files and crash orphans deleted.
    pub files_removed: u64,
    /// False only when the crash-before-commit test hook fired: the new
    /// tier files exist on disk but the old manifest is still the live
    /// one.
    pub committed: bool,
}

/// Append-only writer over a store directory.
pub struct StoreWriter {
    root: PathBuf,
    manifest: Manifest,
    tail: Option<SegmentWriter>,
    /// Height the next appended block must carry.
    next_block: u64,
    /// Segments sealed or grown since the last manifest commit.
    dirty: bool,
    /// Lowest segment position whose meta changed since the last commit.
    changed_from: Option<usize>,
    /// A store file was created since the last commit; the directory is
    /// `fsync`ed before the commit point.
    created_files: bool,
    /// Files written since the last commit that the tail no longer
    /// holds: sealed segments, their sidecars, compacted tiers. Each is
    /// `sync_data`ed once before the commit point.
    unsynced: Vec<(fs::File, PathBuf)>,
    /// Syncs this writer made outside `MANIFEST`.
    syncs: Syncs,
    /// Segments this writer has sealed.
    sealed: u64,
    /// Running aggregate tables; their changed rows ride each delta, the
    /// whole tables each snapshot.
    rollups: RollupBuilder,
    /// Append side of `MANIFEST`.
    log: SnapshotLog,
    /// Crash-simulation test hook (see
    /// [`StoreWriter::simulate_crash_before_commit`]).
    crash_before_commit: bool,
}

impl StoreWriter {
    /// Create a fresh store at `root` (the directory is created). Errors
    /// with [`StoreError::AlreadyExists`] if a manifest is already there,
    /// and with [`StoreError::UnsupportedVersion`] over a store of another
    /// format; both write nothing.
    pub fn create(
        root: &Path,
        timeline: Timeline,
        segment_blocks: u64,
    ) -> Result<StoreWriter, StoreError> {
        refuse_legacy(root)?;
        if root.join(MANIFEST_FILE).exists() {
            return Err(match Manifest::load(root) {
                Err(e @ StoreError::UnsupportedVersion { .. }) => e,
                _ => StoreError::AlreadyExists {
                    root: root.to_path_buf(),
                },
            });
        }
        fs::create_dir_all(root).map_err(|e| StoreError::io("create store dir", root, e))?;
        // Commit the empty store immediately so `open` and readers see a
        // valid (if empty) manifest.
        let mut w = StoreWriter::with_state(
            root,
            Manifest::new(timeline, segment_blocks),
            None,
            RollupBuilder::new(),
            SnapshotLog::new(root.join(MANIFEST_FILE)),
        );
        w.land(None)?;
        Ok(w)
    }

    fn with_state(
        root: &Path,
        manifest: Manifest,
        tail: Option<SegmentWriter>,
        rollups: RollupBuilder,
        log: SnapshotLog,
    ) -> StoreWriter {
        let next_block = manifest
            .head_block()
            .map(|h| h + 1)
            .unwrap_or(manifest.timeline.genesis_number);
        StoreWriter {
            root: root.to_path_buf(),
            manifest,
            tail,
            next_block,
            dirty: false,
            changed_from: None,
            created_files: false,
            unsynced: Vec::new(),
            syncs: Syncs::default(),
            sealed: 0,
            rollups,
            log,
            crash_before_commit: false,
        }
    }

    /// Open an existing store for appending. The committed partial tail
    /// segment (if any) is reopened in place; uncommitted bytes past the
    /// manifest's record are truncated away, as is a torn last delta of
    /// the manifest. Opening never writes a snapshot.
    pub fn open(root: &Path) -> Result<StoreWriter, StoreError> {
        let (manifest, log) = Manifest::open(root)?;
        let mut tail = None;
        if let Some(last) = manifest.segments.last() {
            if last.blocks < manifest.segment_blocks {
                tail = Some(SegmentWriter::reopen(root, last)?);
            }
        }
        let rollups = RollupBuilder::from_block(&manifest.rollups);
        let w = StoreWriter::with_state(root, manifest, tail, rollups, log);
        // A crash mid-compaction can leave fresh tier files that never
        // made it into a manifest; they are dead weight, never live data.
        w.remove_orphans();
        Ok(w)
    }

    /// Open if a manifest exists, otherwise create.
    pub fn open_or_create(
        root: &Path,
        timeline: Timeline,
        segment_blocks: u64,
    ) -> Result<StoreWriter, StoreError> {
        if root.join(MANIFEST_FILE).exists() {
            StoreWriter::open(root)
        } else {
            StoreWriter::create(root, timeline, segment_blocks)
        }
    }

    /// The store's timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.manifest.timeline
    }

    /// Height of the last *committed* block.
    pub fn committed_head(&self) -> Option<u64> {
        self.manifest.head_block()
    }

    /// Height the next append must carry (counts uncommitted appends).
    pub fn next_block(&self) -> u64 {
        self.next_block
    }

    /// The `(file, directory)` syncs this writer has made, `MANIFEST`'s
    /// included.
    pub fn syncs(&self) -> (u64, u64) {
        let (files, dirs) = self.log.syncs();
        (self.syncs.files + files, self.syncs.dirs + dirs)
    }

    /// Append one block. Must extend the store by exactly one height.
    /// Not durable until [`StoreWriter::commit`].
    pub fn append(&mut self, block: &Block, receipts: &[Receipt]) -> Result<(), StoreError> {
        let number = block.header.number;
        if number != self.next_block {
            return Err(StoreError::NonContiguous {
                expected: self.next_block,
                got: number,
            });
        }
        if self.tail.is_none() {
            let index = self.manifest.segments.len() as u64;
            // A committed partial tail was reopened by `open`; reaching
            // here means a fresh segment starts at this block.
            let file = self.fresh_segment_file(index);
            self.tail = Some(SegmentWriter::create_named(
                &self.root, file, index, number,
            )?);
            self.created_files = true;
        }
        let sealed = {
            let Some(tail) = self.tail.as_mut() else {
                // Unreachable by construction; surface as corruption
                // rather than panicking.
                return Err(StoreError::ManifestInvalid {
                    detail: "tail segment vanished mid-append".to_string(),
                });
            };
            tail.append(block, receipts)?;
            tail.blocks() >= self.manifest.segment_blocks
        };
        self.rollups
            .add_block(&self.manifest.timeline, number, receipts);
        self.next_block = number + 1;
        self.dirty = true;
        if sealed {
            self.seal_tail()?;
        }
        Ok(())
    }

    /// Name for a fresh tail segment at `index`. Normally the canonical
    /// `seg-{index:05}.seg`, but compaction lets surviving segments keep
    /// file names that no longer match their position, so the canonical
    /// name may already belong to a live file — skip forward until free.
    fn fresh_segment_file(&self, index: u64) -> String {
        let referenced: std::collections::HashSet<&str> = self
            .manifest
            .segments
            .iter()
            .map(|s| s.file.as_str())
            .collect();
        let mut k = index;
        loop {
            let name = crate::segment::segment_file_name(k);
            if !referenced.contains(name.as_str()) {
                return name;
            }
            k += 1;
        }
    }

    /// Write the full tail segment's final (compact) sidecar index,
    /// record its meta, and hand both files to the next commit to sync.
    fn seal_tail(&mut self) -> Result<(), StoreError> {
        if let Some(mut tail) = self.tail.take() {
            let sidecar = tail.write_index(&self.root, false)?;
            if let Some(meta) = tail.meta() {
                self.record_meta(meta);
                self.sealed += 1;
                mev_obs::counter("store.ingest.segments_sealed").inc();
            }
            self.defer_sync(sidecar.into_iter().chain([tail.into_file()]))?;
        }
        Ok(())
    }

    /// Keep written files for the next commit to sync, each once. Past
    /// [`MAX_UNSYNCED`] held handles they are synced now instead, so a
    /// long batch ingest never runs out of file descriptors.
    fn defer_sync(
        &mut self,
        files: impl IntoIterator<Item = (fs::File, PathBuf)>,
    ) -> Result<(), StoreError> {
        self.created_files = true;
        self.unsynced.extend(files);
        if self.unsynced.len() > MAX_UNSYNCED {
            self.sync_unsynced()?;
        }
        Ok(())
    }

    fn sync_unsynced(&mut self) -> Result<(), StoreError> {
        for (file, path) in &self.unsynced {
            self.syncs.sync_file(file, path)?;
        }
        self.unsynced.clear();
        Ok(())
    }

    /// Replace-or-push `meta` in the in-memory manifest view.
    fn record_meta(&mut self, meta: SegmentMeta) {
        let at = meta.index as usize;
        self.changed_from = Some(self.changed_from.map_or(at, |c| c.min(at)));
        match self.manifest.segments.get_mut(at) {
            Some(slot) => *slot = meta,
            None => self.manifest.segments.push(meta),
        }
    }

    /// Make every append durable: record the partial tail's (if any)
    /// zone map, and commit — by appending one delta to `MANIFEST`, or by
    /// a snapshot when the deltas would outgrow both the snapshot and the
    /// floor. Every file written since the last commit is synced first,
    /// and the delta's `sync_data` (or the snapshot's rename) is the
    /// single commit point: segment bytes, sealed segments' index bytes
    /// and rollups land before it and become visible together.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        if !self.dirty {
            return Ok(());
        }
        if let Some(tail) = &self.tail {
            tail.sync(&mut self.syncs)?;
        }
        if self.crash_before_commit {
            // Test hook: the appended bytes are synced but never
            // committed, as if the writer died here.
            return Ok(());
        }
        if let Some(meta) = self.tail.as_ref().and_then(SegmentWriter::meta) {
            self.record_meta(meta);
        }
        let changed_from = self
            .changed_from
            .unwrap_or(self.manifest.segments.len())
            .min(self.manifest.segments.len());
        self.manifest.validate_from(changed_from)?;
        let change = ManifestChange {
            segments: self.manifest.segments[changed_from..].to_vec(),
            rollups: self.rollups.changes(),
        };
        self.land(Some(&change))?;
        self.dirty = false;
        self.changed_from = None;
        self.rollups.clear_changes();
        Ok(())
    }

    /// The commit point: append `change` to `MANIFEST`, or write the whole
    /// in-memory manifest as a snapshot — always when `change` is `None`.
    /// Every file written since the last commit is synced first, then the
    /// directory once if a file was created. A failed commit leaves
    /// `commit_seq` where it was.
    fn land(&mut self, change: Option<&ManifestChange>) -> Result<(), StoreError> {
        self.sync_unsynced()?;
        if self.created_files {
            self.syncs.sync_dir(&self.root)?;
        }
        self.manifest.commit_seq += 1;
        let (manifest, rollups) = (&mut self.manifest, &self.rollups);
        let snapshot = move || {
            // Moving the borrow in makes the closure `FnOnce`, so it can
            // hand the manifest back.
            let manifest = manifest;
            manifest.rollups = rollups.to_block();
            manifest.validate()?;
            Ok(&*manifest)
        };
        let landed = match change {
            Some(change) => self.log.commit(change, snapshot),
            None => snapshot()
                .and_then(|m| self.log.snapshot(m))
                .map(|()| Commit::Snapshot),
        };
        match landed {
            Ok(Commit::Delta) => mev_obs::counter("store.commit.delta").inc(),
            Ok(Commit::Snapshot) => mev_obs::counter("store.commit.snapshot").inc(),
            Err(e) => {
                self.manifest.commit_seq -= 1;
                return Err(e);
            }
        }
        self.created_files = false;
        Ok(())
    }

    /// Ingest an in-memory archive: append every block the store does not
    /// yet hold, then commit. Re-running over the same (or a grown) chain
    /// appends only the new suffix — the incremental re-ingest path.
    pub fn ingest(&mut self, chain: &ChainStore) -> Result<IngestStats, StoreError> {
        let _t = mev_obs::span("store.ingest.ns");
        let held = self
            .next_block
            .saturating_sub(chain.timeline().genesis_number);
        self.ingest_suffix(chain, held.min(chain.len() as u64))
    }

    /// Ingest only the chain's new tail: append every block past
    /// [`StoreWriter::next_block`], then commit. Equivalent to
    /// [`StoreWriter::ingest`] but reports no skipped blocks — the
    /// live-follow hot path, where the chain grows by a few blocks between
    /// cycles.
    pub fn ingest_tail(&mut self, chain: &ChainStore) -> Result<IngestStats, StoreError> {
        let _t = mev_obs::span("store.ingest_tail.ns");
        self.ingest_suffix(chain, 0)
    }

    /// The one ingest body: check the timeline, append the chain's blocks
    /// past [`StoreWriter::next_block`] (O(new blocks), never a walk of the
    /// prefix), commit.
    fn ingest_suffix(
        &mut self,
        chain: &ChainStore,
        skipped: u64,
    ) -> Result<IngestStats, StoreError> {
        let tl = chain.timeline();
        let mine = &self.manifest.timeline;
        if tl.genesis_number != mine.genesis_number
            || tl.genesis_timestamp != mine.genesis_timestamp
            || tl.seconds_per_block != mine.seconds_per_block
        {
            return Err(StoreError::TimelineMismatch {
                detail: format!(
                    "chain genesis {} / store genesis {}",
                    tl.genesis_number, mine.genesis_number
                ),
            });
        }
        let sealed_before = self.sealed;
        let mut stats = IngestStats {
            skipped,
            ..IngestStats::default()
        };
        if let Some(head) = chain.head_number() {
            for (block, receipts) in chain.range(self.next_block, head) {
                self.append(block, receipts)?;
                stats.appended += 1;
            }
        }
        self.commit()?;
        stats.segments_sealed = self.sealed - sealed_before;
        mev_obs::counter("store.ingest.blocks").add(stats.appended);
        Ok(stats)
    }

    /// Merge runs of small sealed segments into larger tiers holding up to
    /// `factor` × `segment_blocks` blocks each, with the address column of
    /// the rebuilt sidecars dictionary-compressed. The partial tail (if
    /// any) is never rewritten, only renumbered. The swap is atomic: new
    /// tier files and sidecars are written and fsynced first, then one
    /// manifest snapshot rename makes them live; a crash at any earlier
    /// point leaves the old manifest fully live and the next open sweeps
    /// the orphaned tier files.
    pub fn compact(&mut self, factor: u64) -> Result<CompactionStats, StoreError> {
        let _t = mev_obs::span("store.compact.ns");
        // Start from a committed state so the manifest we rewrite is the
        // one on disk and the tail's committed meta is current.
        self.commit()?;
        let segment_blocks = self.manifest.segment_blocks;
        let tier_blocks = factor.max(2) * segment_blocks;
        let mut stats = CompactionStats {
            segments_before: self.manifest.segments.len() as u64,
            committed: true,
            ..CompactionStats::default()
        };

        // Greedily group consecutive segments into tiers. Sealed segments
        // accumulate until the tier is full; the partial tail always
        // stands alone (it is still being appended to, in place).
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = Vec::new();
        let mut current_blocks = 0u64;
        for (i, seg) in self.manifest.segments.iter().enumerate() {
            let partial = seg.blocks < segment_blocks;
            if (partial || current_blocks + seg.blocks > tier_blocks) && !current.is_empty() {
                groups.push(std::mem::take(&mut current));
                current_blocks = 0;
            }
            if partial {
                groups.push(vec![i]);
            } else {
                current.push(i);
                current_blocks += seg.blocks;
            }
        }
        if !current.is_empty() {
            groups.push(current);
        }
        if !groups.iter().any(|g| g.len() >= 2) {
            stats.segments_after = stats.segments_before;
            return Ok(stats);
        }

        // Fresh tier files are named after the commit sequence the swap
        // will carry; the sequence only moves forward, so a crashed pass
        // can never collide with a committed file.
        let name_seq = self.manifest.commit_seq + 1;
        let mut new_segments: Vec<SegmentMeta> = Vec::with_capacity(groups.len());
        for (pos, group) in groups.iter().enumerate() {
            if group.len() == 1 {
                let mut meta = self.manifest.segments[group[0]].clone();
                meta.index = pos as u64;
                new_segments.push(meta);
                continue;
            }
            let first_block = self.manifest.segments[group[0]].first_block;
            let mut w = SegmentWriter::create_named(
                &self.root,
                compacted_file_name(name_seq, pos as u64),
                pos as u64,
                first_block,
            )?;
            for &i in group {
                let src = &self.manifest.segments[i];
                for entry in read_segment(&self.root, src)? {
                    w.append(&entry.block, &entry.receipts)?;
                }
                stats.segments_merged += 1;
            }
            let sidecar = w.write_index(&self.root, true)?;
            let Some(meta) = w.meta() else {
                return Err(StoreError::ManifestInvalid {
                    detail: format!("compacted tier {pos} sealed empty"),
                });
            };
            stats.blocks_merged += meta.blocks;
            stats.tiers_written += 1;
            new_segments.push(meta);
            self.defer_sync(sidecar.into_iter().chain([w.into_file()]))?;
        }

        if self.crash_before_commit {
            // Test hook: the new tier files are on disk but the manifest
            // swap never happens — exactly a crash before the commit
            // point. The in-memory view stays on the old manifest too.
            stats.committed = false;
            return Ok(stats);
        }

        // Compaction renumbers segments, which a delta cannot express: it
        // always commits by snapshot.
        let old_segments = std::mem::replace(&mut self.manifest.segments, new_segments);
        if let Err(e) = self.land(None) {
            self.manifest.segments = old_segments;
            return Err(e);
        }
        if let Some(tail) = self.tail.as_mut() {
            tail.renumber(self.manifest.segments.len() as u64 - 1);
        }
        stats.segments_after = self.manifest.segments.len() as u64;
        stats.files_removed = self.remove_orphans();
        mev_obs::counter("store.compact.tiers").add(stats.tiers_written);
        mev_obs::counter("store.compact.segments_merged").add(stats.segments_merged);
        Ok(stats)
    }

    /// Crash-simulation hook for tests: when set, a
    /// [`StoreWriter::compact`] writes its tier files but returns just
    /// before the manifest swap, and a [`StoreWriter::commit`] syncs the
    /// tail's appended bytes but returns before its commit point, as a
    /// crash there would.
    pub fn simulate_crash_before_commit(&mut self, yes: bool) {
        self.crash_before_commit = yes;
    }

    /// Delete store files the live manifest does not reference: segment
    /// and sidecar files replaced by a committed compaction, tier files
    /// from a compaction that crashed before its commit, and stray
    /// atomic-write temporaries. Best-effort; returns the count removed.
    fn remove_orphans(&self) -> u64 {
        let mut referenced = std::collections::HashSet::new();
        for seg in &self.manifest.segments {
            referenced.insert(seg.file.clone());
            referenced.extend(seg.postings.as_ref().map(|im| im.file.clone()));
        }
        let Ok(dir) = fs::read_dir(&self.root) else {
            return 0;
        };
        let mut removed = 0u64;
        for entry in dir.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale_store_file = name.starts_with("seg-")
                && (name.ends_with(".seg") || name.ends_with(".idx"))
                && !referenced.contains(name);
            let stale_tmp = name.starts_with('.') && name.ends_with(".tmp");
            if (stale_store_file || stale_tmp) && fs::remove_file(entry.path()).is_ok() {
                removed += 1;
            }
        }
        mev_obs::counter("store.compact.orphans_removed").add(removed);
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{scratch_dir, test_chain};

    #[test]
    fn create_then_open_empty() {
        let dir = scratch_dir("writer-empty");
        let w = StoreWriter::create(&dir, Timeline::paper_span(100), 4).unwrap();
        assert_eq!(w.committed_head(), None);
        drop(w);
        let w2 = StoreWriter::open(&dir).unwrap();
        assert_eq!(w2.committed_head(), None);
        assert!(matches!(
            StoreWriter::create(&dir, Timeline::paper_span(100), 4),
            Err(StoreError::AlreadyExists { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_seals_and_commits() {
        let dir = scratch_dir("writer-ingest");
        let chain = test_chain(10, 2);
        let mut w = StoreWriter::create(&dir, chain.timeline().clone(), 4).unwrap();
        let stats = w.ingest(&chain).unwrap();
        assert_eq!(stats.appended, 10);
        assert_eq!(stats.skipped, 0);
        assert_eq!(stats.segments_sealed, 2); // 4 + 4 + partial 2
        assert_eq!(w.committed_head(), Some(10_000_009));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segments_sealed_counts_only_this_writers_seals() {
        // Another writer sealing segments at the same time in this process
        // must not leak into this writer's count.
        let other = std::thread::spawn(|| {
            let dir = scratch_dir("writer-sealed-other");
            let chain = test_chain(40, 1);
            let mut w = StoreWriter::create(&dir, chain.timeline().clone(), 2).unwrap();
            let stats = w.ingest(&chain).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            stats.segments_sealed
        });
        let dir = scratch_dir("writer-sealed");
        let mut sealed = 0;
        let mut w = StoreWriter::create(&dir, Timeline::paper_span(100), 4).unwrap();
        for n in (3..=30).step_by(3) {
            sealed += w.ingest_tail(&test_chain(n, 1)).unwrap().segments_sealed;
        }
        assert_eq!(sealed, 7, "30 blocks in 4-block segments seal 7");
        assert_eq!(other.join().unwrap(), 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `(snapshot frame bytes, delta bytes)` of the manifest file.
    fn manifest_layout(dir: &Path) -> (u64, u64) {
        let bytes = fs::read(dir.join(MANIFEST_FILE)).unwrap();
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as u64;
        let snapshot = crate::frame::FRAME_HEADER_BYTES + len;
        (snapshot, bytes.len() as u64 - snapshot)
    }

    #[cfg(unix)]
    #[test]
    fn tail_commits_append_and_rename_nothing() {
        use std::os::unix::fs::MetadataExt;
        let dir = scratch_dir("writer-append-only");
        let mut w = StoreWriter::create(&dir, Timeline::paper_span(100), 8).unwrap();
        // The batch commit writes the snapshot the deltas then follow: 25
        // sealed segments, so it is several times larger than a delta.
        w.ingest(&test_chain(200, 2)).unwrap();
        let manifest = dir.join(MANIFEST_FILE);
        let inode = fs::metadata(&manifest).unwrap().ino();
        let mut bytes = fs::read(&manifest).unwrap();
        let files = || fs::read_dir(&dir).unwrap().count();
        let listed = files();
        for n in 201..=204 {
            w.ingest_tail(&test_chain(n, 2)).unwrap();
            let now = fs::read(&manifest).unwrap();
            assert!(
                now.len() > bytes.len() && now.starts_with(&bytes),
                "the manifest only grows"
            );
            assert_eq!(fs::metadata(&manifest).unwrap().ino(), inode, "no rename");
            // The first commit starts the tail's segment file; no commit
            // writes an index.
            assert_eq!(files(), listed + 1);
            bytes = now;
        }
        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m.head_block(), Some(10_000_203));
        assert_eq!(
            m.segments[25].postings, None,
            "the open tail has no sidecar"
        );
        let report = crate::StoreReader::open(&dir).unwrap().verify().unwrap();
        assert_eq!(
            (report.blocks, report.indexes, report.rollups),
            (204, 26, 1)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sealing_a_reopened_tail_writes_its_sidecar() {
        let dir = scratch_dir("writer-reopen-seal");
        let mut w = StoreWriter::create(&dir, Timeline::paper_span(100), 4).unwrap();
        w.ingest_tail(&test_chain(6, 1)).unwrap();
        let sidecar = dir.join("seg-00001.idx");
        assert!(!sidecar.exists(), "the open tail has no sidecar");
        drop(w);
        let mut w = StoreWriter::open(&dir).unwrap();
        w.ingest_tail(&test_chain(9, 1)).unwrap();
        assert!(sidecar.exists());
        assert!(!dir.join("seg-00002.idx").exists());
        crate::StoreReader::open(&dir).unwrap().verify().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deltas_give_way_to_a_snapshot_once_they_outgrow_one() {
        use crate::snapshot_log::SNAPSHOT_FLOOR;
        const N_COMMITS: u64 = 800;
        let dir = scratch_dir("writer-delta-snapshot");
        let mut w = StoreWriter::create(&dir, Timeline::paper_span(100), 4).unwrap();
        let mut snapshots = 0;
        let mut last = manifest_layout(&dir);
        // Each 1-block commit adds a delta of a few hundred bytes: enough
        // commits to cross the floor more than once.
        let chain = test_chain(N_COMMITS, 1);
        for (n, (block, receipts)) in (1..).zip(chain.iter()) {
            w.append(block, receipts).unwrap();
            w.commit().unwrap();
            let now = manifest_layout(&dir);
            assert!(
                now.1 <= now.0.max(SNAPSHOT_FLOOR),
                "the deltas never outgrow both the snapshot and the floor"
            );
            if now.1 <= last.1 {
                snapshots += 1;
                assert_eq!(now.1, 0, "a snapshot drops the deltas");
                assert!(last.1 > SNAPSHOT_FLOOR / 2, "no snapshot below the floor");
            }
            last = now;
            assert_eq!(
                Manifest::load(&dir).unwrap().head_block(),
                Some(10_000_000 + n - 1)
            );
        }
        assert!(
            (2..10).contains(&snapshots),
            "{snapshots} snapshots in {N_COMMITS} commits, {last:?}"
        );
        crate::StoreReader::open(&dir).unwrap().verify().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The `(file, directory)` syncs `step` makes on `w`.
    fn syncs_of(w: &mut StoreWriter, step: impl FnOnce(&mut StoreWriter)) -> (u64, u64) {
        let before = w.syncs();
        step(w);
        let after = w.syncs();
        (after.0 - before.0, after.1 - before.1)
    }

    #[test]
    fn each_commit_syncs_every_written_file_once_and_the_directory_at_most_once() {
        let dir = scratch_dir("writer-syncs");
        let mut w = StoreWriter::create(&dir, Timeline::paper_span(100), 8).unwrap();
        // The empty snapshot: its temp file, and the directory after the
        // rename.
        assert_eq!(w.syncs(), (1, 1));
        let commit = |w: &mut StoreWriter, n| {
            syncs_of(w, |w| {
                w.ingest_tail(&test_chain(n, 1)).unwrap();
            })
        };
        // A new tail: its segment, then the directory entry it needs,
        // then the MANIFEST delta. The tail writes no index.
        assert_eq!(commit(&mut w, 3), (2, 1));
        // A tail commit that does not seal creates nothing.
        assert_eq!(commit(&mut w, 5), (2, 0));
        // Sealing: the segment and its new sidecar, then the directory
        // once, then the delta.
        assert_eq!(commit(&mut w, 8), (3, 1));
        // Sealing and starting a tail in one commit: still one directory
        // fsync.
        assert_eq!(commit(&mut w, 18), (4, 1));
        assert_eq!(commit(&mut w, 18), (0, 0), "nothing to commit");
        crate::StoreReader::open(&dir).unwrap().verify().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_batch_ingest_fsyncs_the_directory_once() {
        let dir = scratch_dir("writer-batch-syncs");
        let mut w = StoreWriter::create(&dir, Timeline::paper_span(100), 2).unwrap();
        // 50 sealed segments hold more files than the writer keeps open,
        // so some are synced early; each still once.
        let synced = syncs_of(&mut w, |w| {
            let stats = w.ingest(&test_chain(101, 1)).unwrap();
            assert_eq!(stats.segments_sealed, 50);
        });
        // Each sealed segment and its sidecar, the tail, the delta.
        assert_eq!(synced, (50 * 2 + 1 + 1, 1));
        assert!(manifest_layout(&dir).1 > 0, "one delta, no snapshot");
        crate::StoreReader::open(&dir).unwrap().verify().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_commit_keeps_commit_seq() {
        let dir = scratch_dir("writer-failed-commit");
        let mut w = StoreWriter::create(&dir, Timeline::paper_span(100), 64).unwrap();
        w.ingest_tail(&test_chain(3, 1)).unwrap();
        let committed = Manifest::load(&dir).unwrap();
        // A directory where the manifest was: neither an append nor a
        // snapshot rename can land.
        let path = dir.join(MANIFEST_FILE);
        let bytes = fs::read(&path).unwrap();
        fs::remove_file(&path).unwrap();
        fs::create_dir_all(path.join("blocker")).unwrap();
        assert!(w.ingest_tail(&test_chain(5, 1)).is_err());
        fs::remove_dir_all(&path).unwrap();
        fs::write(&path, bytes).unwrap();
        // The retry commits the next seq, by snapshot after the failure.
        w.commit().unwrap();
        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m.commit_seq, committed.commit_seq + 1);
        assert_eq!(m.head_block(), Some(10_000_004));
        assert_eq!(
            manifest_layout(&dir).1,
            0,
            "a failed append forces a snapshot"
        );
        crate::StoreReader::open(&dir).unwrap().verify().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn format_3_directories_are_refused_and_left_alone() {
        for found in [3, 4] {
            let dir = scratch_dir(&format!("writer-format-{found}"));
            let chain = test_chain(6, 1);
            StoreWriter::create(&dir, chain.timeline().clone(), 4)
                .and_then(|mut w| w.ingest(&chain))
                .unwrap();
            let manifest = dir.join(MANIFEST_FILE);
            if found == 3 {
                // Segment files and sidecars beside a `MANIFEST.json`, no
                // `MANIFEST`.
                fs::rename(&manifest, dir.join("MANIFEST.json")).unwrap();
            } else {
                // A `MANIFEST` whose snapshot says format 4, then a delta
                // this build cannot decode: it must not be cut off.
                let m = Manifest {
                    version: 4,
                    ..Manifest::load(&dir).unwrap()
                };
                SnapshotLog::new(&manifest).snapshot(&m).unwrap();
                let mut delta = fs::read(&manifest).unwrap();
                crate::encode_frame(&mut delta, crate::snapshot_log::FRAME_DELTA, &[1, 0xFF]);
                fs::write(&manifest, delta).unwrap();
            }
            let listing = || {
                let mut files: Vec<_> = fs::read_dir(&dir)
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .map(|p| (fs::read(&p).unwrap(), p))
                    .collect();
                files.sort();
                files
            };
            let before = listing();
            let tl = chain.timeline().clone();
            for refused in [
                StoreWriter::create(&dir, tl.clone(), 4).map(drop),
                StoreWriter::open(&dir).map(drop),
                StoreWriter::open_or_create(&dir, tl, 4).map(drop),
                crate::StoreReader::open(&dir).map(drop),
            ] {
                assert!(
                    matches!(refused, Err(StoreError::UnsupportedVersion { found: f, .. }) if f == found),
                    "{refused:?}"
                );
            }
            assert_eq!(listing(), before, "nothing was written");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A whole, CRC-valid frame after the snapshot that is not a delta
    /// this build decodes was committed, not torn: opening a store of
    /// the current format refuses it and leaves `MANIFEST` as it was.
    #[test]
    fn a_committed_frame_that_does_not_decode_is_an_error_and_is_kept() {
        use crate::snapshot_log::{FRAME_DELTA, FRAME_SNAPSHOT};
        for (kind, payload) in [(FRAME_DELTA, &[1u8, 0xFF][..]), (FRAME_SNAPSHOT, &[])] {
            let dir = scratch_dir(&format!("writer-undecodable-{kind}"));
            let chain = test_chain(6, 1);
            StoreWriter::create(&dir, chain.timeline().clone(), 4)
                .and_then(|mut w| w.ingest(&chain))
                .unwrap();
            let manifest = dir.join(MANIFEST_FILE);
            let mut log = fs::read(&manifest).unwrap();
            crate::encode_frame(&mut log, kind, payload);
            fs::write(&manifest, &log).unwrap();
            let opened = StoreWriter::open(&dir).map(drop);
            assert!(
                matches!(&opened, Err(StoreError::ManifestInvalid { detail }) if detail.contains("delta")),
                "kind {kind}: {opened:?}"
            );
            assert_eq!(
                fs::read(&manifest).unwrap(),
                log,
                "kind {kind}: nothing was cut"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn reingest_is_incremental() {
        let dir = scratch_dir("writer-reingest");
        let small = test_chain(6, 2);
        let grown = test_chain(11, 2);
        let mut w = StoreWriter::create(&dir, small.timeline().clone(), 4).unwrap();
        w.ingest(&small).unwrap();
        drop(w);
        let mut w2 = StoreWriter::open(&dir).unwrap();
        let again = w2.ingest(&small).unwrap();
        assert_eq!(again.appended, 0);
        assert_eq!(again.skipped, 6);
        let more = w2.ingest(&grown).unwrap();
        assert_eq!(more.appended, 5);
        assert_eq!(more.skipped, 6);
        assert_eq!(w2.committed_head(), Some(10_000_010));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_tail_appends_only_the_suffix() {
        let dir = scratch_dir("writer-ingest-tail");
        let small = test_chain(6, 2);
        let grown = test_chain(11, 2);
        let mut w = StoreWriter::create(&dir, small.timeline().clone(), 4).unwrap();
        w.ingest_tail(&small).unwrap();
        // Same chain again: nothing to append, nothing walked.
        let again = w.ingest_tail(&small).unwrap();
        assert_eq!(again, IngestStats::default());
        let more = w.ingest_tail(&grown).unwrap();
        assert_eq!(more.appended, 5);
        assert_eq!(more.skipped, 0);
        assert_eq!(w.committed_head(), Some(10_000_010));
        // The incremental result is identical to a one-shot ingest
        // (commit_seq aside, which counts commits, not content).
        let batch_dir = scratch_dir("writer-ingest-tail-batch");
        let mut batch = StoreWriter::create(&batch_dir, grown.timeline().clone(), 4).unwrap();
        batch.ingest(&grown).unwrap();
        let a = Manifest::load(&dir).unwrap();
        let b = Manifest::load(&batch_dir).unwrap();
        assert_eq!(a.segments, b.segments, "segment metas diverged");
        assert_eq!(a.rollups, b.rollups, "rollups diverged");
        for seg in &a.segments {
            let x = fs::read(dir.join(&seg.file)).unwrap();
            let y = fs::read(batch_dir.join(&seg.file)).unwrap();
            assert_eq!(x, y, "segment {} bytes diverged", seg.file);
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&batch_dir).ok();
    }

    #[test]
    fn rollups_and_sidecars_ride_the_manifest_commit() {
        let dir = scratch_dir("writer-rollups");
        let chain = test_chain(10, 2);
        let mut w = StoreWriter::create(&dir, chain.timeline().clone(), 4).unwrap();
        w.ingest(&chain).unwrap();
        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m.rollups.head_block, m.head_block());
        assert_eq!(m.rollups.logs, m.log_count());
        // Every sealed segment carries its sidecar, exactly the committed
        // length; the open tail has none.
        let (tail, sealed) = m.segments.split_last().unwrap();
        assert_eq!(tail.postings, None);
        for seg in sealed {
            let im = seg.postings.as_ref().unwrap();
            assert_eq!(im.rows, seg.log_count);
            let len = fs::metadata(dir.join(&im.file)).unwrap().len();
            assert_eq!(len, im.bytes);
        }
        // Growing the store keeps everything in sync.
        drop(w);
        let grown = test_chain(13, 2);
        let mut w2 = StoreWriter::open(&dir).unwrap();
        w2.ingest(&grown).unwrap();
        let m2 = Manifest::load(&dir).unwrap();
        assert_eq!(m2.rollups.logs, m2.log_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_contiguous_append_is_an_error() {
        let dir = scratch_dir("writer-gap");
        let chain = test_chain(3, 1);
        let mut w = StoreWriter::create(&dir, chain.timeline().clone(), 4).unwrap();
        let (b2, r2) = chain
            .iter()
            .nth(2)
            .map(|(b, r)| (b.clone(), r.to_vec()))
            .unwrap();
        assert!(matches!(
            w.append(&b2, &r2),
            Err(StoreError::NonContiguous {
                expected: 10_000_000,
                got: 10_000_002
            })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timeline_mismatch_is_an_error() {
        let dir = scratch_dir("writer-timeline");
        let chain = test_chain(3, 1);
        let mut w = StoreWriter::create(&dir, Timeline::paper_span(500), 4).unwrap();
        assert!(matches!(
            w.ingest(&chain),
            Err(StoreError::TimelineMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_merges_sealed_segments_into_tiers() {
        let dir = scratch_dir("writer-compact");
        let chain = test_chain(11, 2);
        let mut w = StoreWriter::create(&dir, chain.timeline().clone(), 2).unwrap();
        w.ingest(&chain).unwrap();
        // 5 sealed segments of 2 + a partial tail of 1.
        assert_eq!(Manifest::load(&dir).unwrap().segments.len(), 6);
        let stats = w.compact(2).unwrap();
        assert!(stats.committed);
        assert_eq!(stats.segments_before, 6);
        // [0,1] and [2,3] merge into 4-block tiers; segment 4 is a lone
        // sealed segment and the tail stands alone: 4 segments remain.
        assert_eq!(stats.segments_after, 4);
        assert_eq!(stats.tiers_written, 2);
        assert_eq!(stats.segments_merged, 4);
        assert_eq!(stats.blocks_merged, 8);
        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m.segments.len(), 4);
        assert_eq!(m.head_block(), Some(10_000_010));
        // Every block survives, bit-identical, through the new metas.
        let mut numbers = Vec::new();
        for seg in &m.segments {
            for entry in read_segment(&dir, seg).unwrap() {
                numbers.push(entry.block.header.number);
            }
        }
        assert_eq!(numbers, (10_000_000..=10_000_010).collect::<Vec<_>>());
        // Replaced files are gone; the store keeps appending fine.
        assert!(!dir.join("seg-00000.seg").exists());
        let grown = test_chain(14, 2);
        w.ingest(&grown).unwrap();
        assert_eq!(w.committed_head(), Some(10_000_013));
        drop(w);
        let w2 = StoreWriter::open(&dir).unwrap();
        assert_eq!(w2.committed_head(), Some(10_000_013));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_without_enough_segments_is_a_no_op() {
        let dir = scratch_dir("writer-compact-noop");
        let chain = test_chain(5, 2);
        let mut w = StoreWriter::create(&dir, chain.timeline().clone(), 4).unwrap();
        w.ingest(&chain).unwrap();
        let before = Manifest::load(&dir).unwrap();
        let stats = w.compact(4).unwrap();
        assert!(stats.committed);
        assert_eq!(stats.tiers_written, 0);
        assert_eq!(stats.segments_before, stats.segments_after);
        assert_eq!(Manifest::load(&dir).unwrap().segments, before.segments);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_before_commit_leaves_the_old_manifest_live() {
        let dir = scratch_dir("writer-compact-crash");
        let chain = test_chain(9, 2);
        let mut w = StoreWriter::create(&dir, chain.timeline().clone(), 2).unwrap();
        w.ingest(&chain).unwrap();
        let before = Manifest::load(&dir).unwrap();
        w.simulate_crash_before_commit(true);
        let stats = w.compact(2).unwrap();
        assert!(!stats.committed);
        assert_eq!(stats.tiers_written, 2);
        // The manifest on disk is untouched and every file it names is
        // still present and readable.
        let after = Manifest::load(&dir).unwrap();
        assert_eq!(after.segments, before.segments);
        assert_eq!(after.commit_seq, before.commit_seq);
        for seg in &after.segments {
            read_segment(&dir, seg).unwrap();
        }
        // Orphaned tier files exist until the next open sweeps them.
        let orphan = dir.join(compacted_file_name(before.commit_seq + 1, 0));
        assert!(orphan.exists());
        drop(w);
        let mut w2 = StoreWriter::open(&dir).unwrap();
        assert!(!orphan.exists(), "open() must sweep crashed tier files");
        // A clean retry then succeeds.
        let stats = w2.compact(2).unwrap();
        assert!(stats.committed);
        assert_eq!(stats.tiers_written, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_appends_are_invisible_after_reopen() {
        let dir = scratch_dir("writer-uncommitted");
        let chain = test_chain(6, 1);
        let mut w = StoreWriter::create(&dir, chain.timeline().clone(), 10).unwrap();
        let mut it = chain.iter();
        let (b0, r0) = it.next().unwrap();
        w.append(b0, r0).unwrap();
        w.commit().unwrap();
        for (b, r) in it {
            w.append(b, r).unwrap();
        }
        // The new tail bytes are synced, but the writer dies before their
        // commit point.
        w.simulate_crash_before_commit(true);
        w.commit().unwrap();
        drop(w);
        // The reader's tail index holds exactly the committed block's logs.
        let r = crate::StoreReader::open(&dir).unwrap();
        let idx = crate::SegmentIndex::load(&dir, &r.segments()[0]).unwrap();
        let mut rows = idx.rows();
        let logs: Vec<_> = (0..=idx.header.rows as u32)
            .map_while(|row| rows.get(row).ok().map(|rd| rd.log))
            .collect();
        assert_eq!(
            logs,
            r0.iter().flat_map(|r| r.logs.clone()).collect::<Vec<_>>()
        );
        let w2 = StoreWriter::open(&dir).unwrap();
        assert_eq!(w2.committed_head(), Some(10_000_000));
        assert_eq!(w2.next_block(), 10_000_001);
        std::fs::remove_dir_all(&dir).ok();
    }
}
