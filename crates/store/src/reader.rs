//! [`StoreReader`]: the `ArchiveNode`-style query surface over a
//! committed store. Log queries go through the [`crate::planner`]: a
//! selective filter over fully-indexed segments is served from sidecar
//! postings (zero segment data frames read), whole-archive aggregates
//! are answered from the manifest's rollup tables, and everything else
//! falls back to the zone-map/bloom-pruned full scan — every path
//! bit-identical to the scan. The streaming read path
//! ([`StoreReader::stream_segments_mapped`]) decodes segments on the
//! workspace's one ordered parallel map,
//! [`mev_types::par`](fn@mev_types::par), and delivers them in height order.
//! Also here: [`StoreReader::verify`] (full checksum + zone-map + sidecar
//! + rollup audit).

use crate::error::StoreError;
use crate::frame::CommittedFile;
use crate::manifest::{Manifest, SegmentMeta};
use crate::planner::{self, GroupBy};
use crate::postings::{IndexBuilder, SegmentIndex};
use crate::rollup::{wei_value, RollupStat};
use crate::segment::{read_segment, BlockEntry};
use mev_chain::{
    ArchiveQuery, Cursor, EventKind, LogEntry, LogFilter, LogPage, QueryPlan, QueryStats,
};
use mev_types::{Address, Block, Month, Receipt, Timeline};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// What [`StoreReader::verify`] audited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyReport {
    pub segments: u64,
    pub blocks: u64,
    pub txs: u64,
    pub logs: u64,
    pub bytes: u64,
    /// Segment indexes audited: each sealed segment's sidecar
    /// byte-compared against a deterministic re-encode of its entries,
    /// opened under the committed [`crate::postings::IndexMeta`], and
    /// meta-audited (row / interned address counts, chunk geometry)
    /// against the rebuild; the open tail's, which has no sidecar,
    /// rebuilt from its entries as queries build it.
    pub indexes: u64,
    /// Committed rollup blocks recomputed from every segment (always 1).
    pub rollups: u64,
}

/// One row of an [`StoreReader::aggregate`] answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregateRow {
    pub key: AggregateKey,
    pub stat: RollupStat,
}

/// The group-by key of an aggregate row, matching the query's
/// [`GroupBy`] dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateKey {
    Kind(EventKind),
    Addr(Address),
    Epoch(Month),
}

/// An LRU of segment slots, keyed by segment index. A slot holds what
/// has been opened of that segment: its decoded entries (for scans and
/// point reads) and its opened sidecar (for postings queries, which
/// keeps every row chunk it has decoded). Both are `Arc`-shared, so a
/// hit is a pointer clone, never a re-read. Recency is a generation
/// stamp: a hit is one `HashMap` probe plus a stamp write — O(1) under
/// the lock, so concurrent serve workers do not serialize behind a
/// recency-list rewrite. Only an insert past capacity scans for the
/// minimum stamp (eviction is rare and the map is small), and it evicts
/// the whole slot. Capacity 1 reproduces the original one-segment cache;
/// a server fronting many concurrent clients raises the capacity
/// ([`StoreReader::with_segment_cache`]) so each client's hot segments
/// stay decoded. Files are read and decoded outside the lock; the cache
/// only ever takes finished values.
///
/// Sidecars only use capacity that decoded entries leave free: a sidecar
/// joins its segment's slot if there is one, else takes a free slot or
/// the least recent sidecar-only slot, and otherwise is not kept. A data
/// insert past capacity evicts sidecar-only slots first, then the slot
/// whose entries were touched least recently. So postings traffic never
/// changes which segments' entries stay decoded, nor the hit ratio: the
/// data side behaves exactly as a data-only LRU of the same capacity.
struct SegmentCache {
    capacity: usize,
    /// Monotone touch counter; the stamp of the next access.
    clock: u64,
    entries: std::collections::BTreeMap<u64, Slot>,
    /// Data lookups and hits only: sidecar lookups have their own
    /// counters and stay out of the hit ratio.
    hits: u64,
    lookups: u64,
}

/// One segment's cached halves, either of which may be absent.
struct Slot {
    /// Last touch of either half; orders sidecar-only slots.
    stamp: u64,
    /// Decoded entries and the stamp of their last data touch, which
    /// alone orders the eviction of slots holding entries.
    data: Option<(u64, Arc<Vec<BlockEntry>>)>,
    index: Option<Arc<SegmentIndex>>,
}

impl SegmentCache {
    fn new(capacity: usize) -> SegmentCache {
        SegmentCache {
            capacity: capacity.max(1),
            clock: 0,
            entries: std::collections::BTreeMap::new(),
            hits: 0,
            lookups: 0,
        }
    }

    /// Look up a segment's decoded entries, refreshing its recency stamp
    /// on a hit, and keep the hit/lookup tallies behind the
    /// `store.segment_cache.hit_ratio` gauge.
    fn get(&mut self, index: u64) -> Option<Arc<Vec<BlockEntry>>> {
        self.lookups += 1;
        self.clock += 1;
        let clock = self.clock;
        let found = self.entries.get_mut(&index).and_then(|slot| {
            let (stamp, entries) = slot.data.as_mut()?;
            *stamp = clock;
            slot.stamp = clock;
            Some(Arc::clone(entries))
        });
        if found.is_some() {
            self.hits += 1;
        }
        self.publish_hit_ratio();
        found
    }

    /// Look up a segment's opened sidecar, refreshing its slot's stamp
    /// (not its entries') on a hit. Not counted in the hit ratio.
    fn get_index(&mut self, index: u64) -> Option<Arc<SegmentIndex>> {
        self.clock += 1;
        let clock = self.clock;
        let slot = self.entries.get_mut(&index)?;
        let found = Arc::clone(slot.index.as_ref()?);
        slot.stamp = clock;
        Some(found)
    }

    /// Insert (or refresh) a segment's decoded entries, evicting past
    /// capacity: sidecar-only slots first, least recent first, then the
    /// slot with the least recently touched entries.
    fn put(&mut self, index: u64, entries: &Arc<Vec<BlockEntry>>) {
        self.clock += 1;
        let clock = self.clock;
        let slot = self.entries.entry(index).or_insert(Slot {
            stamp: clock,
            data: None,
            index: None,
        });
        slot.stamp = clock;
        slot.data = Some((clock, Arc::clone(entries)));
        while self.entries.len() > self.capacity {
            let Some(victim) = self.oldest_sidecar_only().or_else(|| {
                self.entries
                    .iter()
                    .filter_map(|(&i, slot)| Some((slot.data.as_ref()?.0, i)))
                    .min()
                    .map(|(_, i)| i)
            }) else {
                break;
            };
            self.entries.remove(&victim);
        }
    }

    /// Keep an opened sidecar if there is room for it (see
    /// [`SegmentCache`]) and return the one to use: a concurrent query
    /// may have opened and stored the same sidecar first, and using that
    /// one keeps the chunks it has decoded.
    fn put_index(&mut self, index: u64, opened: Arc<SegmentIndex>) -> Arc<SegmentIndex> {
        self.clock += 1;
        let clock = self.clock;
        if !self.entries.contains_key(&index) && self.entries.len() >= self.capacity {
            match self.oldest_sidecar_only() {
                Some(victim) => {
                    self.entries.remove(&victim);
                }
                None => return opened,
            }
        }
        let slot = self.entries.entry(index).or_insert(Slot {
            stamp: clock,
            data: None,
            index: None,
        });
        slot.stamp = clock;
        Arc::clone(slot.index.get_or_insert(opened))
    }

    /// The least recently touched slot that holds no entries.
    fn oldest_sidecar_only(&self) -> Option<u64> {
        self.entries
            .iter()
            .filter(|(_, slot)| slot.data.is_none())
            .min_by_key(|(_, slot)| slot.stamp)
            .map(|(&i, _)| i)
    }

    /// Export the lifetime hit ratio (per mille) into the RunReport.
    fn publish_hit_ratio(&self) {
        if let Some(per_mille) = (self.hits * 1000).checked_div(self.lookups) {
            mev_obs::gauge("store.segment_cache.hit_ratio").set(per_mille as i64);
        }
    }
}

/// Read-only handle over a committed store.
pub struct StoreReader {
    root: PathBuf,
    manifest: Manifest,
    /// Segment LRU of decoded entries and opened sidecars (see
    /// [`SegmentCache`]).
    cache: Mutex<SegmentCache>,
    /// Worker threads for streaming segment decode (1 = serial).
    decode_threads: usize,
}

impl StoreReader {
    /// Open a store: load + validate the manifest and check every named
    /// segment file exists with at least its committed length (a shorter
    /// file is truncation and fails here, on open).
    pub fn open(root: &Path) -> Result<StoreReader, StoreError> {
        let manifest = Manifest::load(root)?;
        for seg in &manifest.segments {
            let path = root.join(&seg.file);
            let meta = match std::fs::metadata(&path) {
                Ok(m) => m,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(StoreError::SegmentMissing { path })
                }
                Err(e) => return Err(StoreError::io("stat segment", &path, e)),
            };
            if meta.len() < seg.bytes {
                return Err(StoreError::SegmentTruncated {
                    path,
                    committed: seg.bytes,
                    actual: meta.len(),
                });
            }
        }
        Ok(StoreReader {
            root: root.to_path_buf(),
            manifest,
            cache: Mutex::new(SegmentCache::new(1)),
            decode_threads: 1,
        })
    }

    /// Widen the segment LRU to hold `capacity` segments (the default is
    /// one). A serving deployment sizes this to its hot set. Each cached
    /// segment costs, in memory, its decoded entries once a scan or point
    /// read has touched it, plus its opened sidecar (postings table and
    /// every row chunk decoded so far) once a postings query has.
    /// Sidecars only fill capacity that decoded entries leave free (see
    /// [`SegmentCache`]), so warm postings queries need the sidecar
    /// working set to fit there.
    pub fn with_segment_cache(mut self, capacity: usize) -> StoreReader {
        self.cache = Mutex::new(SegmentCache::new(capacity));
        self
    }

    /// Decode up to `threads` segments concurrently in the streaming
    /// read path ([`StoreReader::stream_segments_mapped`]). The
    /// default (1) keeps the single prefetcher; any value is safe —
    /// delivery order and results are identical at every thread count.
    pub fn with_decode_threads(mut self, threads: usize) -> StoreReader {
        self.decode_threads = threads.max(1);
        self
    }

    /// The streaming decode pool size (see
    /// [`StoreReader::with_decode_threads`]).
    pub fn decode_threads(&self) -> usize {
        self.decode_threads
    }

    pub fn timeline(&self) -> &Timeline {
        &self.manifest.timeline
    }

    /// Height of the last committed block.
    pub fn head_block(&self) -> Option<u64> {
        self.manifest.head_block()
    }

    /// Committed block count.
    pub fn block_count(&self) -> u64 {
        self.manifest.block_count()
    }

    /// Committed segment metas, in height order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.manifest.segments
    }

    /// The manifest's commit sequence number.
    pub fn commit_seq(&self) -> u64 {
        self.manifest.commit_seq
    }

    /// Decode segment `index` (through the segment LRU).
    pub fn read_segment_entries(&self, index: u64) -> Result<Arc<Vec<BlockEntry>>, StoreError> {
        if let Ok(mut cache) = self.cache.lock() {
            if let Some(entries) = cache.get(index) {
                mev_obs::counter("store.segment_cache_hits").inc();
                return Ok(entries);
            }
        }
        let meta = match self.manifest.segments.get(index as usize) {
            Some(m) => m,
            None => {
                return Err(StoreError::ManifestInvalid {
                    detail: format!("segment {index} not committed"),
                })
            }
        };
        mev_obs::counter("store.segments_read").inc();
        let entries = Arc::new(read_segment(&self.root, meta)?);
        if let Ok(mut cache) = self.cache.lock() {
            cache.put(index, &entries);
        }
        Ok(entries)
    }

    /// Segment `meta`'s index ([`SegmentIndex::load`]), through the
    /// segment LRU: the open tail's, built in memory, is kept like any
    /// opened sidecar, and building it reads past the cache, so postings
    /// traffic leaves the data side alone. Opening happens outside the
    /// cache lock, and a failed open is not kept: the next query tries
    /// again.
    fn segment_index(&self, meta: &SegmentMeta) -> Result<Arc<SegmentIndex>, StoreError> {
        if let Ok(mut cache) = self.cache.lock() {
            if let Some(index) = cache.get_index(meta.index) {
                mev_obs::counter("store.index_cache_hits").inc();
                return Ok(index);
            }
        }
        mev_obs::counter("store.indexes_opened").inc();
        let opened = Arc::new(SegmentIndex::load(&self.root, meta)?);
        Ok(match self.cache.lock() {
            Ok(mut cache) => cache.put_index(meta.index, opened),
            Err(_) => opened,
        })
    }

    /// The streaming read path over the committed segments in `segments`
    /// (clamped to the committed count): segments are read, CRC-checked
    /// and passed through `map` **on worker threads**, and the mapped
    /// values reach `consume` strictly in segment order on the calling
    /// thread. `mev-core` decodes `BlockRecord`s in `map` and interns them
    /// in `consume`.
    ///
    /// This runs on [`mev_types::par`](fn@mev_types::par), one item per
    /// segment, on `decode_threads.min(segments)` workers: at least one, so
    /// even one decode thread reads ahead while the consumer works.
    /// Results, errors included (the first failing segment in height
    /// order), are identical at every thread count.
    /// `store.prefetch.segments` counts deliveries and
    /// `store.prefetch.stall.ns` the consumer's wait.
    pub fn stream_segments_mapped<T, M, F>(
        &self,
        segments: std::ops::Range<u64>,
        map: M,
        mut consume: F,
    ) -> Result<(), StoreError>
    where
        T: Send,
        M: Fn(u64, Arc<Vec<BlockEntry>>) -> T + Sync,
        F: FnMut(u64, T),
    {
        let committed = self.manifest.segments.len() as u64;
        let first = segments.start.min(committed);
        let total = segments.end.min(committed).saturating_sub(first) as usize;
        let (result, stats) = mev_types::par(
            total,
            self.decode_threads,
            |i| {
                let seg = first + i as u64;
                self.read_segment_entries(seg).map(|e| map(seg, e))
            },
            |i, mapped| consume(first + i as u64, mapped),
        );
        mev_obs::counter("store.prefetch.segments").add(stats.consumed as u64);
        mev_obs::counter("store.prefetch.stall.ns").add(stats.stall_ns);
        result
    }

    /// Locate and decode the segment containing `block`, if committed.
    #[allow(clippy::type_complexity)]
    fn entries_for_block(
        &self,
        block: u64,
    ) -> Result<Option<(Arc<Vec<BlockEntry>>, u64)>, StoreError> {
        let Some(meta) = self.manifest.segment_for(block) else {
            return Ok(None);
        };
        let entries = self.read_segment_entries(meta.index)?;
        Ok(Some((entries, meta.first_block)))
    }

    /// Fetch a block by height.
    pub fn get_block(&self, number: u64) -> Result<Option<Block>, StoreError> {
        Ok(self
            .entries_for_block(number)?
            .and_then(|(entries, first)| {
                entries
                    .get((number - first) as usize)
                    .map(|e| e.block.clone())
            }))
    }

    /// Fetch a block's receipts by height.
    pub fn get_receipts(&self, number: u64) -> Result<Option<Vec<Receipt>>, StoreError> {
        Ok(self
            .entries_for_block(number)?
            .and_then(|(entries, first)| {
                entries
                    .get((number - first) as usize)
                    .map(|e| e.receipts.clone())
            }))
    }

    /// `eth_getLogs` over the store. Same filter semantics and
    /// pagination contract as [`mev_chain::get_logs`]; the planner
    /// decides how the page is produced.
    pub fn get_logs(&self, filter: &LogFilter) -> Result<LogPage, StoreError> {
        self.get_logs_with_stats(filter).map(|(page, _)| page)
    }

    /// [`StoreReader::get_logs`] plus what the query touched. The
    /// planner picks the strategy ([`QueryStats::plan`] records it): a
    /// selective filter over fully-indexed segments reads only sidecar
    /// pages; anything else — including any sidecar that fails
    /// validation or checksum — scans, which is always correct.
    pub fn get_logs_with_stats(
        &self,
        filter: &LogFilter,
    ) -> Result<(LogPage, QueryStats), StoreError> {
        let _t = mev_obs::span("store.get_logs.ns");
        let plan = planner::plan_logs(filter, &self.manifest);
        planner::record(plan);
        if plan == QueryPlan::Postings {
            match self.postings_logs(filter) {
                Ok(answer) => return Ok(answer),
                // A torn, stale, or bitflipped sidecar must never fail a
                // query the data frames can still answer: degrade to the
                // scan path and leave the sidecar for `verify` to call
                // out. The stats then report the *executed* FullScan in
                // `plan` while `planned` keeps the planner's choice — so
                // a served page can never claim `postings` alongside
                // nonzero data frames, even after multi-page folding.
                Err(_) => {
                    mev_obs::counter("store.postings.fallback").inc();
                    let (page, mut stats) = self.get_logs_scan_with_stats(filter)?;
                    stats.planned = QueryPlan::Postings;
                    return Ok((page, stats));
                }
            }
        }
        self.get_logs_scan_with_stats(filter)
    }

    /// The forced full-scan path, bypassing the planner (the property
    /// tests' oracle, and the fallback for unindexed or damaged
    /// archives). Bit-identical to every planner-chosen strategy.
    pub fn get_logs_scan_with_stats(
        &self,
        filter: &LogFilter,
    ) -> Result<(LogPage, QueryStats), StoreError> {
        let mut stats = QueryStats {
            pages: 1,
            segments_total: self.manifest.segments.len() as u64,
            ..QueryStats::default()
        };
        let empty = LogPage {
            entries: Vec::new(),
            next: None,
        };
        let Some(head) = self.head_block() else {
            return Ok((empty, stats));
        };
        let genesis = self.manifest.timeline.genesis_number;
        let Some((from, to, skip)) = filter.window(genesis, head) else {
            return Ok((empty, stats));
        };
        let limit = filter.effective_limit();
        let selective = filter.is_selective();
        let mut entries: Vec<LogEntry> = Vec::new();
        // Hash the filter's probe set once; per segment the bloom test
        // is a handful of word compares.
        let bloom_query = crate::bloom::BloomQuery::compile(filter);
        let mut probe_words = 0u64;

        for meta in &self.manifest.segments {
            if !meta.overlaps(from, to) {
                stats.pruned_by_zone += 1;
                continue;
            }
            let (may_match, words) = bloom_query.matches_counting(&meta.bloom);
            probe_words += words;
            if !may_match {
                stats.pruned_by_bloom += 1;
                mev_obs::counter("store.scan.segments_pruned_bloom").inc();
                continue;
            }
            let decoded = self.read_segment_entries(meta.index)?;
            stats.segments_read += 1;
            stats.data_frames_read += decoded.len() as u64;
            let matched_before = entries.len();
            for entry in decoded.iter() {
                let number = entry.block.header.number;
                if number < from {
                    continue;
                }
                if number > to {
                    break;
                }
                stats.blocks_scanned += 1;
                for r in &entry.receipts {
                    if let Some((skip_block, first_tx)) = skip {
                        if number == skip_block && r.index < first_tx {
                            continue;
                        }
                    }
                    for log in &r.logs {
                        if filter.matches_log(log) {
                            entries.push(LogEntry {
                                block: number,
                                tx_index: r.index,
                                tx_hash: r.tx_hash,
                                log: log.clone(),
                            });
                        }
                    }
                    // Page boundary between transactions, exactly like
                    // the in-memory query surface.
                    if entries.len() >= limit {
                        mev_obs::counter("store.scan.segments_scanned").add(stats.segments_read);
                        mev_obs::counter("store.scan.segments_pruned_zone")
                            .add(stats.pruned_by_zone);
                        mev_obs::counter("store.scan.bloom_probe_words").add(probe_words);
                        return Ok((
                            LogPage {
                                entries,
                                next: Some(Cursor::at_tx(number, r.index + 1)),
                            },
                            stats,
                        ));
                    }
                }
            }
            if selective && entries.len() == matched_before {
                stats.bloom_false_positives += 1;
                mev_obs::counter("store.scan.bloom_false_positives").inc();
            }
        }
        mev_obs::counter("store.scan.segments_scanned").add(stats.segments_read);
        mev_obs::counter("store.scan.segments_pruned_zone").add(stats.pruned_by_zone);
        mev_obs::counter("store.scan.bloom_probe_words").add(probe_words);
        Ok((
            LogPage {
                entries,
                next: None,
            },
            stats,
        ))
    }

    /// The postings strategy: per overlapping (and bloom-passing)
    /// segment, take the sidecar from the segment LRU (opening it on a
    /// miss), look the filter up in the inverted postings, and
    /// materialize only the matching row chunks — segment data frames are
    /// never touched. Stats count pages logically: header and postings
    /// for every sidecar consulted plus each chunk touched, whether read
    /// now or kept from an earlier query, so a warm answer's stats equal
    /// a cold one's. Any sidecar error propagates to the caller, which
    /// falls back to the scan.
    fn postings_logs(&self, filter: &LogFilter) -> Result<(LogPage, QueryStats), StoreError> {
        let mut stats = QueryStats {
            plan: QueryPlan::Postings,
            planned: QueryPlan::Postings,
            pages: 1,
            segments_total: self.manifest.segments.len() as u64,
            ..QueryStats::default()
        };
        let empty = LogPage {
            entries: Vec::new(),
            next: None,
        };
        let Some(head) = self.head_block() else {
            return Ok((empty, stats));
        };
        let genesis = self.manifest.timeline.genesis_number;
        let Some((from, to, skip)) = filter.window(genesis, head) else {
            return Ok((empty, stats));
        };
        let limit = filter.effective_limit();
        let mut entries: Vec<LogEntry> = Vec::new();
        // (block, tx_index) of the last pushed entry: the page breaks at
        // transaction boundaries, so one transaction's logs never split.
        let mut last_tx: Option<(u64, u32)> = None;
        let bloom_query = crate::bloom::BloomQuery::compile(filter);
        let mut probe_words = 0u64;

        for meta in &self.manifest.segments {
            if !meta.overlaps(from, to) {
                stats.pruned_by_zone += 1;
                continue;
            }
            let (may_match, words) = bloom_query.matches_counting(&meta.bloom);
            probe_words += words;
            if !may_match {
                stats.pruned_by_bloom += 1;
                mev_obs::counter("store.scan.segments_pruned_bloom").inc();
                continue;
            }
            // Any match in this segment starts a strictly later block
            // than everything already collected.
            if entries.len() >= limit {
                break;
            }
            let idx = self.segment_index(meta)?;
            stats.postings_pages_read += idx.pages_read;
            let ranges = idx.rows_for_filter(filter);
            if ranges.is_empty() {
                // The bloom let the segment through but the (exact)
                // postings found nothing — a bloom false positive,
                // discovered without reading a single row chunk.
                stats.bloom_false_positives += 1;
                mev_obs::counter("store.scan.bloom_false_positives").inc();
                continue;
            }
            let matched_before = entries.len();
            let mut rows = idx.rows();
            'ranges: for (start, len) in ranges {
                for row in start..start.saturating_add(len) {
                    let rd = rows.get(row)?;
                    if rd.block < from {
                        continue;
                    }
                    if rd.block > to {
                        // Rows are in block order: nothing later matches.
                        break 'ranges;
                    }
                    if let Some((skip_block, first_tx)) = skip {
                        if rd.block == skip_block && rd.tx_index < first_tx {
                            continue;
                        }
                    }
                    if !filter.matches_log(&rd.log) {
                        continue;
                    }
                    // The scan checks the cap after each transaction; a
                    // full page therefore closes at the previous
                    // transaction — unless this row continues it.
                    if entries.len() >= limit && last_tx != Some((rd.block, rd.tx_index)) {
                        break 'ranges;
                    }
                    last_tx = Some((rd.block, rd.tx_index));
                    entries.push(LogEntry {
                        block: rd.block,
                        tx_index: rd.tx_index,
                        tx_hash: rd.tx_hash,
                        log: rd.log,
                    });
                }
            }
            stats.postings_pages_read += rows.pages_read;
            if entries.len() == matched_before {
                stats.bloom_false_positives += 1;
                mev_obs::counter("store.scan.bloom_false_positives").inc();
            }
        }
        mev_obs::counter("store.postings.pages_read").add(stats.postings_pages_read);
        mev_obs::counter("store.scan.segments_pruned_zone").add(stats.pruned_by_zone);
        mev_obs::counter("store.scan.bloom_probe_words").add(probe_words);
        let next = match (entries.len() >= limit, last_tx) {
            // Same trailing-cursor rule as the scan: a full page always
            // carries a cursor, even when no matches remain.
            (true, Some((block, tx))) => Some(Cursor::at_tx(block, tx + 1)),
            _ => None,
        };
        Ok((LogPage { entries, next }, stats))
    }

    /// Group-by aggregate over every matching log. Whole-archive
    /// aggregates the committed rollup tables can answer exactly are
    /// served from the manifest alone ([`QueryPlan::Rollup`], zero
    /// segment or index bytes); anything else folds the normal log pages.
    /// Both produce identical rows: keys ascending, counts and
    /// saturating wei sums per bucket, zero-count buckets omitted.
    pub fn aggregate(
        &self,
        filter: &LogFilter,
        group_by: GroupBy,
    ) -> Result<(Vec<AggregateRow>, QueryStats), StoreError> {
        let plan = planner::plan_aggregate(filter, group_by, &self.manifest);
        planner::record(plan);
        if plan == QueryPlan::Rollup {
            let rollups = &self.manifest.rollups;
            let stats = QueryStats {
                plan: QueryPlan::Rollup,
                planned: QueryPlan::Rollup,
                pages: 1,
                segments_total: self.manifest.segments.len() as u64,
                rollup_reads: 1,
                ..QueryStats::default()
            };
            let rows = match group_by {
                GroupBy::Kind => rollups
                    .per_kind
                    .iter()
                    .filter_map(|r| {
                        let kind = EventKind::from_tag(r.tag)?;
                        (filter.kinds.is_empty() || filter.kinds.contains(&kind)).then_some(
                            AggregateRow {
                                key: AggregateKey::Kind(kind),
                                stat: r.stat,
                            },
                        )
                    })
                    .collect(),
                GroupBy::Address => rollups
                    .per_addr
                    .iter()
                    .filter(|r| filter.addresses.is_empty() || filter.addresses.contains(&r.addr))
                    .map(|r| AggregateRow {
                        key: AggregateKey::Addr(r.addr),
                        stat: r.stat,
                    })
                    .collect(),
                GroupBy::Epoch => rollups
                    .per_epoch
                    .iter()
                    .map(|r| AggregateRow {
                        key: AggregateKey::Epoch(r.month),
                        stat: r.stat,
                    })
                    .collect(),
            };
            return Ok((rows, stats));
        }
        self.aggregate_fold(filter, group_by)
    }

    /// The aggregate fallback, bypassing the rollup tables: drive the
    /// filter's pages through the log path and fold each entry into its
    /// bucket. Public as the property tests' oracle, like
    /// [`StoreReader::get_logs_scan_with_stats`].
    pub fn aggregate_fold(
        &self,
        filter: &LogFilter,
        group_by: GroupBy,
    ) -> Result<(Vec<AggregateRow>, QueryStats), StoreError> {
        let timeline = self.manifest.timeline.clone();
        let mut stats = QueryStats::default();
        // Keyed by the frozen kind tag / address / month, all `Ord`, so
        // rows come out ascending exactly like the rollup tables.
        let mut kinds: BTreeMap<u8, RollupStat> = BTreeMap::new();
        let mut addrs: BTreeMap<Address, RollupStat> = BTreeMap::new();
        let mut epochs: BTreeMap<Month, RollupStat> = BTreeMap::new();
        for page in self.pages(filter) {
            let (page, page_stats) = page?;
            stats.absorb(&page_stats);
            for entry in &page.entries {
                let wei = wei_value(&entry.log.event);
                match group_by {
                    GroupBy::Kind => kinds
                        .entry(EventKind::of(&entry.log.event).tag())
                        .or_default()
                        .absorb(wei),
                    GroupBy::Address => addrs.entry(entry.log.address).or_default().absorb(wei),
                    GroupBy::Epoch => epochs
                        .entry(timeline.at(entry.block).month())
                        .or_default()
                        .absorb(wei),
                }
            }
        }
        let rows = match group_by {
            GroupBy::Kind => kinds
                .into_iter()
                .filter_map(|(tag, stat)| {
                    Some(AggregateRow {
                        key: AggregateKey::Kind(EventKind::from_tag(tag)?),
                        stat,
                    })
                })
                .collect(),
            GroupBy::Address => addrs
                .into_iter()
                .map(|(addr, stat)| AggregateRow {
                    key: AggregateKey::Addr(addr),
                    stat,
                })
                .collect(),
            GroupBy::Epoch => epochs
                .into_iter()
                .map(|(month, stat)| AggregateRow {
                    key: AggregateKey::Epoch(month),
                    stat,
                })
                .collect(),
        };
        Ok((rows, stats))
    }

    /// Full integrity audit: re-read every frame of every segment
    /// (checksums verified by the frame reader), recompute each zone
    /// map, count, and bloom against the manifest, byte-compare every
    /// committed sidecar run against a deterministic re-encode of its
    /// segment's entries, and recompute the rollup tables against the
    /// manifest's (snapshot plus folded deltas). Any divergence is a
    /// [`StoreError`]; success returns the audited totals.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let _t = mev_obs::span("store.verify.ns");
        let mut report = VerifyReport::default();
        let mut rollups = crate::rollup::RollupBuilder::new();
        for meta in &self.manifest.segments {
            let path = self.root.join(&meta.file);
            // Bypass the cache: verification must touch the bytes.
            let entries = read_segment(&self.root, meta)?;
            let mut bloom = crate::bloom::LogBloom::new();
            let mut tx_count = 0u64;
            let mut log_count = 0u64;
            for entry in &entries {
                tx_count += entry.block.transactions.len() as u64;
                for r in &entry.receipts {
                    log_count += r.logs.len() as u64;
                    for log in &r.logs {
                        bloom.insert_log(log);
                    }
                }
                rollups.add_block(
                    &self.manifest.timeline,
                    entry.block.header.number,
                    &entry.receipts,
                );
            }
            if tx_count != meta.tx_count || log_count != meta.log_count {
                return Err(StoreError::ZoneMapMismatch {
                    path,
                    detail: format!(
                        "recomputed {tx_count} txs / {log_count} logs, manifest says {} / {}",
                        meta.tx_count, meta.log_count
                    ),
                });
            }
            if bloom != meta.bloom {
                return Err(StoreError::ZoneMapMismatch {
                    path,
                    detail: "recomputed bloom differs from manifest".to_string(),
                });
            }
            let builder = IndexBuilder::from_entries(&entries);
            // The open tail has no sidecar: its index is this rebuild, as
            // every query builds it, so the checks above cover it.
            if let Some(im) = &meta.postings {
                // The sidecar must open under its committed meta (a
                // missing or short file fails here) — the same gate every
                // postings query passes through. Opened first because the
                // byte compare re-encodes with the header's own recorded
                // segment number: compaction renumbers survivors without
                // rewriting their files, so the on-disk number may
                // (validly) lag `meta.index`.
                let idx = SegmentIndex::open(&self.root, meta)?;
                let idx_path = self.root.join(&im.file);
                let committed = CommittedFile::open(&idx_path, im.bytes)?.read(0..im.bytes)?;
                // Sidecar encoding is deterministic, so a byte compare
                // against a rebuild from the (already checksummed)
                // entries proves the index reproduces the data exactly.
                let rebuilt =
                    builder.encode_with(idx.header.segment, meta.first_block, im.dict_addrs);
                if committed != rebuilt {
                    return Err(StoreError::ZoneMapMismatch {
                        path: idx_path,
                        detail: "sidecar index differs from a rebuild of its segment".to_string(),
                    });
                }
                // The byte compare proves file ↔ data; the manifest's
                // `IndexMeta` counts are a separate trust surface (they
                // gate `SegmentIndex::open`), so audit them against the
                // rebuild too — a tampered `chunk_rows` otherwise turns
                // into a permanent silent postings→scan fallback and a
                // tampered `addrs` was checked nowhere at all.
                if im.rows != builder.rows() || im.addrs != builder.addrs() {
                    return Err(StoreError::ManifestInvalid {
                        detail: format!(
                            "index meta for {} commits {} rows / {} addrs, rebuild has {} / {}",
                            im.file,
                            im.rows,
                            im.addrs,
                            builder.rows(),
                            builder.addrs()
                        ),
                    });
                }
            }
            report.indexes += 1;
            report.segments += 1;
            report.blocks += meta.blocks;
            report.txs += tx_count;
            report.logs += log_count;
            report.bytes += meta.bytes;
        }
        if rollups.to_block() != self.manifest.rollups {
            return Err(StoreError::ManifestInvalid {
                detail: "committed rollups differ from a rebuild over every segment".to_string(),
            });
        }
        report.rollups += 1;
        Ok(report)
    }
}

impl ArchiveQuery for StoreReader {
    type Error = StoreError;

    fn timeline(&self) -> &Timeline {
        StoreReader::timeline(self)
    }

    fn head_block(&self) -> Option<u64> {
        StoreReader::head_block(self)
    }

    fn get_logs_with_stats(
        &self,
        filter: &LogFilter,
    ) -> Result<(LogPage, QueryStats), Self::Error> {
        StoreReader::get_logs_with_stats(self, filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{scratch_dir, test_chain};
    use crate::writer::StoreWriter;
    use mev_chain::ChainStore;

    /// Ingest the standard 10-block test chain with 4-block segments.
    fn stored(label: &str) -> (PathBuf, ChainStore) {
        let dir = scratch_dir(label);
        let chain = test_chain(10, 2);
        let mut w = StoreWriter::create(&dir, chain.timeline().clone(), 4).unwrap();
        w.ingest(&chain).unwrap();
        (dir, chain)
    }

    #[test]
    fn point_queries_match_chain() {
        let (dir, chain) = stored("reader-point");
        let r = StoreReader::open(&dir).unwrap();
        assert_eq!(r.head_block(), chain.head_number());
        assert_eq!(r.block_count(), 10);
        for n in 10_000_000..10_000_010u64 {
            assert_eq!(r.get_block(n).unwrap().as_ref(), chain.block(n));
            assert_eq!(r.get_receipts(n).unwrap().as_deref(), chain.receipts(n));
        }
        assert!(r.get_block(10_000_010).unwrap().is_none());
        assert!(r.get_block(9_999_999).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_segments_delivers_every_segment_in_order() {
        let (dir, chain) = stored("reader-stream");
        let r = StoreReader::open(&dir).unwrap();
        let mut seen: Vec<u64> = Vec::new();
        let mut blocks: Vec<u64> = Vec::new();
        r.stream_segments_mapped(
            0..u64::MAX,
            |_, entries| entries,
            |seg, entries| {
                seen.push(seg);
                blocks.extend(entries.iter().map(|e| e.block.header.number));
            },
        )
        .unwrap();
        assert_eq!(seen, vec![0, 1, 2]);
        let expected: Vec<u64> = chain.iter().map(|(b, _)| b.header.number).collect();
        assert_eq!(blocks, expected, "height order preserved");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_segments_mapped_walks_only_the_requested_range() {
        let (dir, chain) = stored("reader-stream-range");
        let r = StoreReader::open(&dir).unwrap();
        // Middle shard only: segment 1 of the 3 committed (blocks 4..=7).
        let mut seen: Vec<u64> = Vec::new();
        let mut blocks: Vec<u64> = Vec::new();
        r.stream_segments_mapped(
            1..2,
            |_, entries| entries,
            |seg, entries| {
                seen.push(seg);
                blocks.extend(entries.iter().map(|e| e.block.header.number));
            },
        )
        .unwrap();
        assert_eq!(seen, vec![1]);
        let expected: Vec<u64> = chain
            .range(10_000_004, 10_000_007)
            .map(|(b, _)| b.header.number)
            .collect();
        assert_eq!(blocks, expected);
        // Ranges past the committed count clamp instead of erroring.
        let mut calls = 0u32;
        r.stream_segments_mapped(2..99, |_, e| e, |_, _| calls += 1)
            .unwrap();
        assert_eq!(calls, 1);
        r.stream_segments_mapped(7..9, |_, e| e, |_, _| unreachable!())
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_streaming_is_identical_at_every_thread_count() {
        let (dir, chain) = stored("reader-stream-parallel");
        let expected: Vec<u64> = chain.iter().map(|(b, _)| b.header.number).collect();
        for threads in [1usize, 2, 3, 8] {
            let r = StoreReader::open(&dir)
                .unwrap()
                .with_decode_threads(threads);
            let mut seen: Vec<u64> = Vec::new();
            let mut blocks: Vec<u64> = Vec::new();
            // Map runs on the workers; consume must still observe
            // segment order.
            r.stream_segments_mapped(
                0..u64::MAX,
                |_, entries| {
                    entries
                        .iter()
                        .map(|e| e.block.header.number)
                        .collect::<Vec<u64>>()
                },
                |seg, nums| {
                    seen.push(seg);
                    blocks.extend(nums);
                },
            )
            .unwrap();
            assert_eq!(seen, vec![0, 1, 2], "threads {threads}");
            assert_eq!(blocks, expected, "threads {threads}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_streaming_surfaces_the_first_error_in_segment_order() {
        let (dir, _chain) = stored("reader-stream-error");
        // Flip a payload byte in the middle of segment 1.
        let path = dir.join("seg-00001.seg");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        for threads in [1usize, 4] {
            let r = StoreReader::open(&dir)
                .unwrap()
                .with_decode_threads(threads);
            let mut seen: Vec<u64> = Vec::new();
            let err = r
                .stream_segments_mapped(0..u64::MAX, |_, e| e, |seg, _| seen.push(seg))
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::ChecksumMismatch { .. } | StoreError::Codec { .. }
                ),
                "threads {threads}: {err:?}"
            );
            assert_eq!(seen, vec![0], "threads {threads}: clean prefix only");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_segments_on_empty_store_is_a_noop() {
        let dir = scratch_dir("reader-stream-empty");
        let chain = test_chain(0, 0);
        StoreWriter::create(&dir, chain.timeline().clone(), 4).unwrap();
        let r = StoreReader::open(&dir).unwrap();
        let mut calls = 0u32;
        r.stream_segments_mapped(0..u64::MAX, |_, e| e, |_, _| calls += 1)
            .unwrap();
        assert_eq!(calls, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn get_logs_equals_in_memory_query() {
        let (dir, chain) = stored("reader-logs");
        let r = StoreReader::open(&dir).unwrap();
        let filters = [
            LogFilter::new(),
            LogFilter::new().kind(EventKind::Swap),
            LogFilter::new().address(Address::from_index(2)),
            LogFilter::new()
                .addresses([Address::from_index(1), Address::from_index(2)])
                .kinds([EventKind::Transfer, EventKind::Swap]),
            LogFilter::new().from_block(10_000_002).to_block(10_000_004),
            LogFilter::new().limit(3),
            LogFilter::new().address(Address::from_index(1)).limit(2),
        ];
        for f in &filters {
            let mem = chain.pages(f).collect_entries().unwrap();
            let stored = r.pages(f).collect_entries().unwrap();
            assert_eq!(mem, stored, "filter {f:?} diverged");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zone_map_prunes_out_of_window_segments() {
        let (dir, _chain) = stored("reader-zone");
        let r = StoreReader::open(&dir).unwrap();
        // Window entirely inside segment 1 (blocks 4..=7), no address or
        // kind: the planner scans, the zone map skips the other segments.
        let f = LogFilter::new().from_block(10_000_005).to_block(10_000_006);
        let (_, stats) = r.get_logs_with_stats(&f).unwrap();
        assert_eq!(stats.plan, QueryPlan::FullScan);
        assert_eq!(stats.segments_total, 3);
        assert_eq!(stats.segments_read, 1);
        assert_eq!(stats.pruned_by_zone, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_address_query_reads_only_index_pages() {
        let (dir, chain) = stored("reader-postings");
        let r = StoreReader::open(&dir).unwrap();
        let f = LogFilter::new().address(Address::from_index(2));
        let (page, stats) = r.get_logs_with_stats(&f).unwrap();
        // The tentpole acceptance check: planner picks postings, and the
        // answer comes from sidecar pages alone.
        assert_eq!(stats.plan, QueryPlan::Postings);
        assert_eq!(stats.segments_read, 0, "no segment opened for data");
        assert_eq!(stats.data_frames_read, 0, "no data frame decoded");
        assert!(stats.postings_pages_read > 0);
        let mem = chain.pages(&f).collect_entries().unwrap();
        assert_eq!(page.entries, mem);
        assert!(page.next.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn postings_pagination_matches_scan_exactly() {
        let (dir, _chain) = stored("reader-postings-pages");
        let r = StoreReader::open(&dir).unwrap();
        // Transfer logs from A(1) land on every block; limit 3 forces
        // multiple pages through both strategies.
        let mut planner_filter = LogFilter::new().address(Address::from_index(1)).limit(3);
        let mut scan_filter = planner_filter.clone();
        loop {
            let (p, ps) = r.get_logs_with_stats(&planner_filter).unwrap();
            let (s, ss) = r.get_logs_scan_with_stats(&scan_filter).unwrap();
            assert_eq!(ps.plan, QueryPlan::Postings);
            assert_eq!(ss.plan, QueryPlan::FullScan);
            assert_eq!(p.entries, s.entries);
            assert_eq!(p.next, s.next, "cursors diverged");
            match (p.next, s.next) {
                (Some(pc), Some(sc)) => {
                    planner_filter = planner_filter.after(pc);
                    scan_filter = scan_filter.after(sc);
                }
                _ => break,
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bloom_prunes_absent_addresses() {
        let (dir, _chain) = stored("reader-bloom");
        let r = StoreReader::open(&dir).unwrap();
        // An address that never logs: every overlapping segment is
        // either bloom-pruned or opened as an (exact) postings lookup
        // that immediately reports a false positive.
        let f = LogFilter::new().address(Address::from_index(987_654));
        let (page, stats) = r.get_logs_with_stats(&f).unwrap();
        assert!(page.entries.is_empty());
        assert_eq!(stats.data_frames_read, 0);
        assert_eq!(stats.pruned_by_bloom + stats.bloom_false_positives, 3);
        assert!(
            stats.pruned_by_bloom >= 2,
            "bloom pruned {}",
            stats.pruned_by_bloom
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_sidecar_degrades_to_scan() {
        let (dir, chain) = stored("reader-idx-corrupt");
        // Flip a byte in the middle of segment 1's sidecar.
        let path = dir.join("seg-00001.idx");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let r = StoreReader::open(&dir).unwrap();
        let f = LogFilter::new().address(Address::from_index(1));
        let (page, stats) = r.get_logs_with_stats(&f).unwrap();
        // The query still answers — from data frames, honestly reported.
        assert_eq!(stats.plan, QueryPlan::FullScan);
        let mem = chain.pages(&f).collect_entries().unwrap();
        assert_eq!(page.entries, mem);
        // And verify calls the damage out.
        assert!(r.verify().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fallback_pages_report_executed_plan() {
        // Satellite-1 regression: a paginated query where early pages
        // degrade postings→scan (damaged sidecar) but later pages are
        // postings-served (cursor past the damaged segment, which the
        // zone map then prunes) must fold to the *executed* FullScan.
        // Pre-fix, absorb let the last page overwrite the plan, so the
        // combined stats claimed `postings` with nonzero data frames.
        let (dir, chain) = stored("reader-fallback-plan");
        let path = dir.join("seg-00000.idx");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let r = StoreReader::open(&dir).unwrap();
        let f = LogFilter::new().address(Address::from_index(1)).limit(3);
        // A single degraded page reports both sides of the story.
        let (_, first) = r.get_logs_with_stats(&f).unwrap();
        assert_eq!(first.plan, QueryPlan::FullScan, "executed");
        assert_eq!(first.planned, QueryPlan::Postings, "intended");
        assert!(first.data_frames_read > 0);
        // A page that starts past the damaged segment is index-served.
        let beyond = f.clone().after(Cursor::at(10_000_004));
        let (_, later) = r.get_logs_with_stats(&beyond).unwrap();
        assert_eq!(later.plan, QueryPlan::Postings);
        assert_eq!(later.planned, QueryPlan::Postings);
        assert_eq!(later.data_frames_read, 0);
        // The multi-page fold keeps the degraded plan truthfully...
        let (entries, stats) = r.pages(&f).collect_with_stats().unwrap();
        assert!(stats.pages > 1, "fixture must actually paginate");
        assert!(stats.data_frames_read > 0);
        assert_eq!(
            stats.plan,
            QueryPlan::FullScan,
            "fold must keep the executed fallback"
        );
        assert_eq!(stats.planned, QueryPlan::Postings);
        // ...and the answer itself is still bit-identical to memory.
        assert_eq!(entries, chain.pages(&f).collect_entries().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_catches_tampered_index_meta() {
        // Satellite-2 regression: the manifest's IndexMeta counts gate
        // `SegmentIndex::open`, but pre-fix nothing audited them —
        // `validate()` only checks `chunk_rows != 0` and `rows ==
        // log_count`, and the old verify byte-compared the sidecar file
        // without consulting the meta. A tampered `chunk_rows` meant
        // every postings query silently fell back to the scan forever; a
        // tampered `addrs` was checked nowhere at all.
        let (dir, _chain) = stored("reader-verify-meta");
        let manifest_path = dir.join(crate::MANIFEST_FILE);
        let clean = std::fs::read(&manifest_path).unwrap();
        let committed = Manifest::load(&dir).unwrap();
        // Tamper through the codec: decode, edit, re-encode.
        let tamper = |edit: &dyn Fn(&mut crate::IndexMeta)| {
            let mut m = committed.clone();
            edit(m.segments[0].postings.as_mut().unwrap());
            crate::SnapshotLog::new(&manifest_path)
                .snapshot(&m)
                .unwrap();
        };
        tamper(&|im| im.chunk_rows = 7);
        let r = StoreReader::open(&dir).unwrap();
        // The damage is invisible to queries (they degrade to the scan)…
        assert!(r.get_logs(&LogFilter::new()).is_ok());
        // …so verify must call it out.
        assert!(r.verify().is_err(), "tampered chunk_rows must fail verify");
        tamper(&|im| im.addrs = 999);
        let r2 = StoreReader::open(&dir).unwrap();
        assert!(r2.verify().is_err(), "tampered addrs must fail verify");
        std::fs::write(&manifest_path, &clean).unwrap();
        assert!(StoreReader::open(&dir).unwrap().verify().is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_cache_lru_keeps_hot_segments() {
        let (dir, _chain) = stored("reader-lru");
        // Capacity 1 (the default): alternating segments always re-decode.
        let r1 = StoreReader::open(&dir).unwrap();
        let a = r1.read_segment_entries(0).unwrap();
        r1.read_segment_entries(1).unwrap();
        let a2 = r1.read_segment_entries(0).unwrap();
        assert!(!Arc::ptr_eq(&a, &a2), "one-slot cache evicted segment 0");
        // Capacity 2: both stay decoded, hits share the same Arc.
        let r2 = StoreReader::open(&dir).unwrap().with_segment_cache(2);
        let b = r2.read_segment_entries(0).unwrap();
        let c = r2.read_segment_entries(1).unwrap();
        assert!(Arc::ptr_eq(&b, &r2.read_segment_entries(0).unwrap()));
        assert!(Arc::ptr_eq(&c, &r2.read_segment_entries(1).unwrap()));
        // A third segment evicts the least recently used (segment 1).
        r2.read_segment_entries(0).unwrap();
        r2.read_segment_entries(2).unwrap();
        assert!(Arc::ptr_eq(&b, &r2.read_segment_entries(0).unwrap()));
        assert!(!Arc::ptr_eq(&c, &r2.read_segment_entries(1).unwrap()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_slot_holds_a_segments_data_and_sidecar() {
        let (dir, _chain) = stored("reader-slot");
        let r = StoreReader::open(&dir).unwrap();
        // Selective and inside segment 0 (blocks 0..=3): postings-served.
        let f = LogFilter::new()
            .address(Address::from_index(1))
            .to_block(10_000_003);
        assert_eq!(
            r.get_logs_with_stats(&f).unwrap().1.plan,
            QueryPlan::Postings
        );
        {
            let cache = r.cache.lock().unwrap();
            let slot = &cache.entries[&0];
            assert!(slot.index.is_some() && slot.data.is_none());
            assert_eq!(cache.lookups, 0, "a sidecar lookup is no data lookup");
        }
        // At capacity 1, a data read of segment 1 evicts segment 0's
        // whole slot, sidecar included.
        r.read_segment_entries(1).unwrap();
        {
            let cache = r.cache.lock().unwrap();
            assert_eq!(cache.entries.keys().copied().collect::<Vec<_>>(), vec![1]);
            assert!(cache.entries[&1].index.is_none());
            assert_eq!((cache.hits, cache.lookups), (0, 1));
        }
        // Segment 1's entries fill the only slot, so postings on segment
        // 0 reopens its sidecar and does not keep it: a sidecar never
        // evicts entries.
        r.get_logs_with_stats(&f).unwrap();
        {
            let cache = r.cache.lock().unwrap();
            assert_eq!(cache.entries.keys().copied().collect::<Vec<_>>(), vec![1]);
            assert!(cache.entries[&1].index.is_none());
        }
        // Once segment 0's entries hold the slot, its sidecar joins them,
        // and only data reads move the ratio.
        r.read_segment_entries(0).unwrap();
        r.read_segment_entries(0).unwrap();
        r.get_logs_with_stats(&f).unwrap();
        let cache = r.cache.lock().unwrap();
        let slot = &cache.entries[&0];
        assert!(slot.index.is_some() && slot.data.is_some());
        assert_eq!(cache.entries.len(), 1);
        assert_eq!((cache.hits, cache.lookups), (1, 3));
        drop(cache);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The segments holding decoded entries, and the hit/lookup tallies.
    fn data_side(r: &StoreReader) -> (Vec<u64>, u64, u64) {
        let cache = r.cache.lock().unwrap();
        let held: Vec<u64> = cache
            .entries
            .iter()
            .filter(|(_, slot)| slot.data.is_some())
            .map(|(&i, _)| i)
            .collect();
        (held, cache.hits, cache.lookups)
    }

    #[test]
    fn postings_traffic_leaves_the_data_side_unchanged() {
        let (dir, _chain) = stored("reader-data-side");
        let segments: Vec<(u64, u64, u64)> = StoreReader::open(&dir)
            .unwrap()
            .segments()
            .iter()
            .map(|s| (s.index, s.first_block, s.last_block))
            .collect();
        assert_eq!(segments.len(), 3);
        for capacity in [1, 2] {
            // `mixed` sees postings queries between the data reads that
            // `data_only` sees alone; its data side must track the other's.
            let mixed = StoreReader::open(&dir)
                .unwrap()
                .with_segment_cache(capacity);
            let data_only = StoreReader::open(&dir)
                .unwrap()
                .with_segment_cache(capacity);
            let mut rng = mev_types::seeded::Rng(0x5EC0 + capacity as u64);
            let mut sidecar_hits = 0;
            for _ in 0..200 {
                let (seg, first, last) = segments[rng.below(3) as usize];
                if rng.below(2) == 0 {
                    let f = LogFilter::new()
                        .address(Address::from_index(1))
                        .from_block(first)
                        .to_block(last);
                    let (_, stats) = mixed.get_logs_with_stats(&f).unwrap();
                    assert_eq!(stats.plan, QueryPlan::Postings);
                    let cache = mixed.cache.lock().unwrap();
                    sidecar_hits += cache
                        .entries
                        .get(&seg)
                        .map_or(0, |s| usize::from(s.index.is_some()));
                } else {
                    mixed.read_segment_entries(seg).unwrap();
                    data_only.read_segment_entries(seg).unwrap();
                }
                assert_eq!(
                    data_side(&mixed),
                    data_side(&data_only),
                    "capacity {capacity}"
                );
                assert!(mixed.cache.lock().unwrap().entries.len() <= capacity);
            }
            assert!(sidecar_hits > 0, "free capacity keeps sidecars");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_chunk_is_reread_on_every_touch() {
        let (dir, chain) = stored("reader-chunk-damage");
        let path = dir.join("seg-00001.idx");
        let clean = std::fs::read(&path).unwrap();
        // The last bytes are the segment's only row chunk: the sidecar
        // still opens, the chunk fails its checksum.
        let mut bytes = clean.clone();
        let end = bytes.len() - 3;
        bytes[end] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let r = StoreReader::open(&dir).unwrap().with_segment_cache(3);
        let f = LogFilter::new().address(Address::from_index(1));
        let want = chain.pages(&f).collect_entries().unwrap();
        for _ in 0..2 {
            let (page, stats) = r.get_logs_with_stats(&f).unwrap();
            assert_eq!(stats.plan, QueryPlan::FullScan);
            assert_eq!(page.entries, want);
        }
        assert!(r.cache.lock().unwrap().entries[&1].index.is_some());
        // Repaired on disk, the kept sidecar reads the chunk afresh: the
        // failure was never cached.
        std::fs::write(&path, &clean).unwrap();
        let (page, stats) = r.get_logs_with_stats(&f).unwrap();
        assert_eq!(stats.plan, QueryPlan::Postings);
        assert_eq!(page.entries, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One sealed 64-block segment of ~1,300 log rows: three row chunks.
    /// Blocks 56..=63 emit from `A(7)` alone, so its rows all sit in the
    /// last chunk; `A(1)` emits in every earlier block.
    fn three_chunk_store(label: &str) -> (PathBuf, ChainStore) {
        let dir = scratch_dir(label);
        let tl = mev_types::Timeline::paper_span(100);
        let mut chain = ChainStore::new(tl.clone());
        for i in 0..64 {
            let (block, mut receipts) = crate::testutil::test_block(tl.genesis_number + i, 20);
            if i >= 56 {
                for log in receipts.iter_mut().flat_map(|r| r.logs.iter_mut()) {
                    log.address = Address::from_index(7);
                }
            }
            chain.push(block, receipts);
        }
        StoreWriter::create(&dir, tl, 64)
            .unwrap()
            .ingest(&chain)
            .unwrap();
        (dir, chain)
    }

    /// Every filter's pages through `r` follow `plan` and hold `chain`'s.
    fn assert_pages(r: &StoreReader, chain: &ChainStore, filters: &[LogFilter], plan: QueryPlan) {
        for f in filters {
            let (entries, stats) = r.pages(f).collect_with_stats().unwrap();
            assert_eq!(stats.plan, plan, "{f:?}");
            assert_eq!(entries, chain.pages(f).collect_entries().unwrap(), "{f:?}");
        }
    }

    #[test]
    fn a_damaged_middle_chunk_fails_only_the_queries_that_touch_it() {
        let (dir, chain) = three_chunk_store("reader-middle-chunk");
        let path = dir.join("seg-00000.idx");
        let clean = std::fs::read(&path).unwrap();
        // Header, postings, then the three chunks: flip chunk 1's middle.
        let mut walk = crate::SliceFrameReader::new(&clean, &path, clean.len() as u64);
        let frames: Vec<_> = std::iter::from_fn(|| walk.next_frame().unwrap()).collect();
        assert_eq!(frames.len(), 5);
        let mid = frames[3].offset as usize + 9 + frames[3].payload.len() / 2;
        let mut bytes = clean.clone();
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let genesis = chain.timeline().genesis_number;
        let a1 = LogFilter::new().address(Address::from_index(1));
        let touching = [
            a1.clone(),
            a1.clone().limit(300),
            a1.clone().to_block(genesis + 40),
        ];
        let untouching = [
            a1.clone().to_block(genesis + 10),
            LogFilter::new().address(Address::from_index(7)),
        ];
        let r = StoreReader::open(&dir).unwrap();
        assert_pages(&r, &chain, &touching, QueryPlan::FullScan);
        assert_pages(&r, &chain, &untouching, QueryPlan::Postings);
        // Repaired on disk, the damaged chunk serves postings again.
        std::fs::write(&path, &clean).unwrap();
        assert_pages(&r, &chain, &touching, QueryPlan::Postings);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_last_chunk_past_the_committed_bytes_degrades_to_a_scan() {
        let (dir, chain) = three_chunk_store("reader-short-sidecar");
        let mut m = Manifest::load(&dir).unwrap();
        // The file keeps every byte; the commit ends inside the last chunk.
        m.segments[0].postings.as_mut().unwrap().bytes -= 5;
        crate::SnapshotLog::new(dir.join(crate::MANIFEST_FILE))
            .snapshot(&m)
            .unwrap();
        let r = StoreReader::open(&dir).unwrap();
        let genesis = chain.timeline().genesis_number;
        let head = LogFilter::new().address(Address::from_index(1));
        assert_pages(
            &r,
            &chain,
            &[head.to_block(genesis + 10)],
            QueryPlan::Postings,
        );
        let tail = LogFilter::new().address(Address::from_index(7));
        assert_pages(&r, &chain, &[tail], QueryPlan::FullScan);
        assert!(r.verify().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aggregates_answer_from_rollups_and_match_the_fold() {
        let (dir, _chain) = stored("reader-aggregate");
        let r = StoreReader::open(&dir).unwrap();
        for group_by in [GroupBy::Kind, GroupBy::Address, GroupBy::Epoch] {
            let (rows, stats) = r.aggregate(&LogFilter::new(), group_by).unwrap();
            assert_eq!(stats.plan, QueryPlan::Rollup, "{group_by:?}");
            assert_eq!(stats.rollup_reads, 1);
            assert_eq!(stats.data_frames_read, 0);
            assert!(!rows.is_empty());
            let (folded, fold_stats) = r.aggregate_fold(&LogFilter::new(), group_by).unwrap();
            assert_ne!(fold_stats.plan, QueryPlan::Rollup);
            assert_eq!(rows, folded, "{group_by:?} rollup diverged from fold");
        }
        // A sub-window aggregate cannot use rollups but still answers.
        let windowed = LogFilter::new().from_block(10_000_003);
        let (rows, stats) = r.aggregate(&windowed, GroupBy::Kind).unwrap();
        assert_ne!(stats.plan, QueryPlan::Rollup);
        let total: u64 = rows.iter().map(|row| row.stat.count).sum();
        // Blocks 3..=9: 2 transfers each + swaps on 4, 6, 8.
        assert_eq!(total, 17);
        // A kinds filter on a kind-grouped aggregate stays rollup-served
        // and selects the matching row only.
        let swaps = LogFilter::new().kind(EventKind::Swap);
        let (rows, stats) = r.aggregate(&swaps, GroupBy::Kind).unwrap();
        assert_eq!(stats.plan, QueryPlan::Rollup);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key, AggregateKey::Kind(EventKind::Swap));
        assert_eq!(rows[0].stat.count, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_passes_clean_and_catches_tampering() {
        let (dir, _chain) = stored("reader-verify");
        let r = StoreReader::open(&dir).unwrap();
        let report = r.verify().unwrap();
        assert_eq!(report.segments, 3);
        assert_eq!(report.blocks, 10);
        assert_eq!(report.txs, 20);
        assert_eq!(report.indexes, 3, "every segment's sidecar audited");
        assert_eq!(report.rollups, 1, "committed rollup block audited");
        // Flip one payload byte in the middle of segment 1.
        let path = dir.join("seg-00001.seg");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let r2 = StoreReader::open(&dir).unwrap();
        assert!(r2.verify().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_detects_missing_and_truncated_segments() {
        let (dir, _chain) = stored("reader-open-missing");
        let seg = dir.join("seg-00002.seg");
        let len = std::fs::metadata(&seg).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 1)
            .unwrap();
        assert!(matches!(
            StoreReader::open(&dir),
            Err(StoreError::SegmentTruncated { .. })
        ));
        std::fs::remove_file(&seg).unwrap();
        assert!(matches!(
            StoreReader::open(&dir),
            Err(StoreError::SegmentMissing { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_store_answers_empty() {
        let dir = scratch_dir("reader-empty");
        StoreWriter::create(&dir, mev_types::Timeline::paper_span(100), 4).unwrap();
        let r = StoreReader::open(&dir).unwrap();
        assert_eq!(r.head_block(), None);
        assert!(r.get_block(10_000_000).unwrap().is_none());
        let page = r.get_logs(&LogFilter::new()).unwrap();
        assert!(page.entries.is_empty() && page.next.is_none());
        assert_eq!(r.verify().unwrap().segments, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
