//! # mev-store
//!
//! A persistent, append-only, segmented archive store for
//! blocks/transactions/receipts/logs — the durable substitute for the
//! paper's 18 TB archive node. The in-memory [`ChainStore`] dies with
//! the process and forces every `goal_audit` run to
//! rebuild the world; this crate makes the archive a *dataset*: ingest
//! once, then re-open, re-query, and incrementally re-detect across
//! processes and runs.
//!
//! ## Format (version 5)
//!
//! ```text
//! <root>/
//!   MANIFEST               snapshot frame, then one delta frame per commit since it
//!   seg-00000.seg          fixed-span segments of frames
//!   seg-00000.idx          sealed segment's sidecar index (postings + rows)
//!   seg-00001.seg          the open tail segment (no sidecar)
//!   ...
//! ```
//!
//! * **Frames** — `[len u32][kind u8][crc32 u32][payload]`; CRC-32
//!   (IEEE) over kind+payload detects torn and bit-flipped writes
//!   ([`frame`]).
//! * **Payloads** — every `.seg`, `.idx` and `MANIFEST` frame payload
//!   (segment and index headers, block entries, postings tables, row
//!   chunks, the manifest snapshot and its deltas) is the binary encoding of
//!   `mev_types::codec`, not JSON:
//!   - `u32`/`u64`, lengths and counts: unsigned LEB128, minimal form;
//!   - `u128` and wei: 16 bytes little-endian; addresses and hashes:
//!     their raw 20 and 32 bytes;
//!   - structs: fields in declaration order, no names; `Vec`: count then
//!     elements; `Option`: `0`/`1` then the value;
//!   - enums: one tag byte per variant, then its fields. The tags are
//!     frozen (listed beside each impl in `mev_types::codec`); a new
//!     variant takes the next free tag, a renumbering is a format change;
//!   - a transaction's cached content hash is stored, never recomputed.
//!
//!   The encoding is deterministic and canonical. Decoding rejects
//!   unknown tags, trailing bytes, non-minimal varints, counts the
//!   remaining bytes cannot hold and flash loans nested past
//!   `MAX_ACTION_DEPTH`, all as [`StoreError::Codec`], without panicking.
//! * **Versioning** — version 2 replaced version 1's JSON payloads with
//!   the binary codec; version 3 added the manifest journal and the
//!   appended tail sidecar runs (`IndexMeta::offset`); version 4 made the
//!   manifest one codec snapshot-and-delta file, `MANIFEST`, in place of
//!   `MANIFEST.json` + `MANIFEST.log`; version 5 dropped the tail's runs
//!   file and `IndexMeta::offset` (the open tail has no sidecar). There is
//!   one read path: an older manifest, segment header or index header —
//!   and a directory holding a `MANIFEST.json` — is refused with
//!   [`StoreError::UnsupportedVersion`]. `tests/pinned_archive/` is
//!   a committed 7-block archive (a batch ingest plus one tail commit)
//!   that `tests/pinned_format.rs` regenerates and compares byte for
//!   byte; any layout change fails it until the version is bumped and the
//!   fixture re-blessed (command in that file).
//! * **Segments** — a header frame plus one block entry frame per block;
//!   sealed segments hold exactly `segment_blocks` blocks ([`segment`]).
//! * **Zone maps & blooms** — the manifest carries, per segment, its
//!   block range and tx/log counts plus a 2048-bit bloom filter over
//!   `(address, event-kind)` in the spirit of Ethereum's own log blooms
//!   ([`bloom`]); `get_logs` prunes whole segments with them.
//! * **Sidecar indexes** — per segment, inverted postings
//!   (`address × kind → row ranges`) over interned address ids plus
//!   columnar row chunks, in the same checksummed frame format
//!   ([`postings`]); a selective filter reads index pages only, never
//!   data frames. A sealed segment's `.idx` is one run, written when it
//!   seals; the open tail has none, and a reader builds its index in
//!   memory from the tail's committed entries.
//! * **Rollups** — per-kind, per-address, and per-epoch counts and
//!   saturating wei sums committed with the manifest — whole in the
//!   snapshot, as changed rows in each delta ([`rollup`]);
//!   whole-archive aggregates are answered without opening a segment.
//! * **Planner** — per query, picks full-scan vs postings vs rollup and
//!   records the choice in [`QueryStats`] and `store.plan.*` counters
//!   ([`planner`]); every strategy is bit-identical to the scan.
//! * **Commit protocol** — files are written unsynced (a sealed
//!   segment's sidecar once, under its final name). A commit
//!   `sync_data`s every file written since the last commit exactly once
//!   (a tail commit: the tail segment alone, then `MANIFEST`, 2 file
//!   syncs), fsyncs the directory once if it created a file, then appends one CRC-framed delta (seq, new or changed segment
//!   metas, changed rollup rows) to `MANIFEST` and `sync_data`s it: the
//!   commit point. When the deltas would outgrow both the snapshot and
//!   [`SNAPSHOT_FLOOR`] (64 KiB), the commit rewrites the file as one
//!   snapshot instead (temp + `sync_data` + rename + directory fsync);
//!   compaction always snapshots. Loading folds in deltas while each is
//!   whole and carries the next seq, so a torn last delta is ignored
//!   ([`snapshot_log`], [`manifest`]). Bytes beyond the manifest's
//!   per-segment counts, and files no manifest names, are crash residue:
//!   invisible to readers, truncated or swept by the next writer. Every
//!   sync is counted per writer ([`StoreWriter::syncs`]) and in the
//!   `store.sync.files` and `store.sync.dirs` counters.
//!   The live follower's and `StoreRun`'s checkpoints are logs of the
//!   same shape.
//!
//! ## Layers
//!
//! [`StoreWriter`] ingests a [`ChainStore`] (incrementally: re-ingest
//! appends only new blocks). [`StoreReader`] serves the archive-node
//! query surface (`get_block`/`get_receipts`/`get_logs`/`aggregate`)
//! through the shared [`ArchiveQuery`] trait, with full-store
//! [`StoreReader::verify`] (segments, sidecars, and rollups).
//! `mev-core` builds its
//! `BlockIndex` straight from a reader and runs the `Inspector` over
//! segments with per-segment resume checkpoints.
//!
//! Instrumented via `mev-obs`: `store.ingest.*`, `store.scan.*`,
//! `store.plan.*`, `store.postings.*`, `store.segment_cache_hits`,
//! `store.index_cache_hits`, `store.indexes_opened`, and span timers
//! `store.*.ns`.

// R4 and R8: library code neither panics nor drops a `Result` unseen.
// Test builds, including integration tests, are exempt.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]

pub mod bloom;
pub mod error;
pub mod frame;
pub mod manifest;
pub mod planner;
pub mod postings;
pub mod reader;
pub mod rollup;
pub mod segment;
pub mod snapshot_log;
pub mod testutil;
pub mod writer;

pub use bloom::{kind_of, kind_tag, BloomQuery, LogBloom, BLOOM_BITS};
pub use error::StoreError;
pub use frame::{encode_frame, FrameSlice, SliceFrameReader};
pub use manifest::{Manifest, ManifestChange, SegmentMeta, FORMAT_VERSION, MANIFEST_FILE};
pub use planner::{plan_aggregate, plan_logs, GroupBy};
pub use postings::{index_file_name, sidecar_file_name, IndexBuilder, IndexMeta, SegmentIndex};
pub use reader::{AggregateKey, AggregateRow, StoreReader, VerifyReport};
pub use rollup::{wei_value, RollupBlock, RollupStat};
pub use segment::{
    compacted_file_name, segment_file_name, BlockEntry, SegmentHeader, SegmentWriter,
};
pub use snapshot_log::{Commit, Delta, Logged, SnapshotLog, SNAPSHOT_FLOOR};
pub use writer::{CompactionStats, IngestStats, StoreWriter};

// Re-exported so store users name the chain query surface without a
// separate import.
pub use mev_chain::{
    ArchiveQuery, ChainStore, Cursor, EventKind, LogEntry, LogFilter, LogPage, QueryPlan,
    QueryStats,
};
