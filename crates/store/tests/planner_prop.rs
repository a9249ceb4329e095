//! Property tests for the query planner (ISSUE 6): whatever strategy
//! the planner picks — full scan, inverted postings, rollup tables —
//! must be bit-identical to the forced full scan on the same filter,
//! page by page, cursor by cursor. And a damaged sidecar must degrade
//! to the scan, never to a wrong answer or an error. The open tail,
//! whose postings are built in memory, must answer exactly as its sealed
//! sidecar later does. The page walks run 64 seeded cases and the others
//! 256; `PLANNER_SEED=<seed>` replays one.

use mev_store::testutil::{scratch_dir, test_chain};
use mev_store::{
    ArchiveQuery, EventKind, GroupBy, LogFilter, LogPage, QueryPlan, QueryStats, StoreReader,
    StoreWriter,
};
use mev_types::seeded::{check_seeds, Rng};
use mev_types::Address;
use std::path::PathBuf;
use std::sync::OnceLock;

const BLOCKS: u64 = 24;
const TXS_PER_BLOCK: u64 = 3;
const SEGMENT_BLOCKS: u64 = 6;

/// One shared read-only archive for the identity properties; each case
/// opens its own reader against it.
fn archive_root() -> &'static PathBuf {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| {
        let dir = scratch_dir("planner-prop");
        let chain = test_chain(BLOCKS, TXS_PER_BLOCK);
        let mut w =
            StoreWriter::create(&dir, chain.timeline().clone(), SEGMENT_BLOCKS).expect("create");
        w.ingest(&chain).expect("ingest");
        dir
    })
}

/// Up to two addresses worth filtering on: the two emitters the fixture
/// chain uses and one that never appears.
fn arb_addresses(rng: &mut Rng) -> Vec<Address> {
    (0..rng.below(3))
        .map(|_| Address::from_index([1, 2, 999_999][rng.below(3) as usize]))
        .collect()
}

fn arb_kinds(rng: &mut Rng) -> Vec<EventKind> {
    (0..rng.below(3))
        .map(|_| {
            [EventKind::Transfer, EventKind::Swap, EventKind::Liquidation][rng.below(3) as usize]
        })
        .collect()
}

/// A random filter over the fixture chain: any address/kind selection,
/// any (possibly empty or out-of-range) window, small page limits so
/// pagination actually paginates.
fn arb_filter(rng: &mut Rng) -> LogFilter {
    let genesis = 10_000_000u64;
    let mut f = LogFilter::new()
        .addresses(arb_addresses(rng))
        .kinds(arb_kinds(rng));
    if rng.below(2) == 1 {
        f = f.from_block(genesis + rng.below(BLOCKS + 4));
    }
    if rng.below(2) == 1 {
        f = f.to_block(genesis + rng.below(BLOCKS + 4));
    }
    if rng.below(2) == 1 {
        f = f.limit(1 + rng.below(11) as usize);
    }
    f
}

/// A random filter that selects on address or kind.
fn arb_selective_filter(rng: &mut Rng) -> LogFilter {
    loop {
        let f = arb_filter(rng);
        if f.is_selective() {
            return f;
        }
    }
}

type Pages = Vec<(LogPage, QueryStats)>;

/// Every page of `f`'s walk through `query`, with its stats.
fn walk(mut f: LogFilter, query: impl Fn(&LogFilter) -> (LogPage, QueryStats)) -> Pages {
    let mut pages = Vec::new();
    for _ in 0..200 {
        let (page, stats) = query(&f);
        let next = page.next;
        pages.push((page, stats));
        match next {
            Some(c) => f = f.after(c),
            None => return pages,
        }
    }
    panic!("pagination did not terminate within 200 pages");
}

/// The planner's walk of `f` on `reader`, checked page by page — entries
/// *and* continuation cursors — against the forced scan's.
fn planned_walk(reader: &StoreReader, f: &LogFilter) -> Pages {
    let planned = walk(f.clone(), |f| reader.get_logs_with_stats(f).unwrap());
    let scanned = walk(f.clone(), |f| reader.get_logs_scan_with_stats(f).unwrap());
    assert_eq!(planned.len(), scanned.len(), "{f:?}");
    for ((page, stats), (scan, scan_stats)) in planned.iter().zip(&scanned) {
        assert_eq!(scan_stats.plan, QueryPlan::FullScan);
        assert!(page == scan, "{f:?}");
        if stats.plan == QueryPlan::Postings {
            // The postings strategy never touches a data frame.
            assert_eq!(stats.segments_read, 0);
            assert_eq!(stats.data_frames_read, 0);
        }
    }
    planned
}

/// Whatever the planner picks, the full page walk matches the forced
/// scan exactly.
#[test]
fn planner_choice_is_bit_identical_to_scan() {
    check_seeds("PLANNER_SEED", 0x0009_1A77_E001, 64, |rng| {
        planned_walk(
            &StoreReader::open(archive_root()).unwrap(),
            &arb_filter(rng),
        );
    });
}

/// A store whose last segment is partial answers every filter as the
/// scan does, its tail's postings built in memory; once more blocks seal
/// that segment, the same filter over the same blocks gives the same
/// pages, and the same stats from the sealed sidecar. Every tail holds
/// an even block, so it and its sealed segment share one bloom.
#[test]
fn the_open_tail_answers_like_its_sealed_sidecar() {
    check_seeds("PLANNER_SEED", 0x0009_1A77_E005, 64, |rng| {
        let segment_blocks = 2 + rng.below(7);
        let sealed = segment_blocks * (1 + rng.below(3));
        let tail_start = sealed - segment_blocks;
        let min_tail = if tail_start % 2 == 1 { 2 } else { 1 };
        let open = tail_start + min_tail + rng.below(segment_blocks - min_tail);
        let txs = 1 + rng.below(TXS_PER_BLOCK);
        let dir = scratch_dir("planner-prop-tail");
        let chain = test_chain(open, txs);
        let mut w = StoreWriter::create(&dir, chain.timeline().clone(), segment_blocks).unwrap();
        w.ingest_tail(&chain).unwrap();
        let head = chain.head_number().unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        assert!(reader.segments().last().unwrap().postings.is_none());
        let walked: Vec<(LogFilter, Pages)> = (0..8)
            .map(|_| {
                let mut f = arb_filter(rng);
                f.to_block = Some(f.to_block.map_or(head, |t| t.min(head)));
                let pages = planned_walk(&reader, &f);
                (f, pages)
            })
            .collect();
        w.ingest_tail(&test_chain(sealed, txs)).unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        assert!(reader.segments().iter().all(|s| s.postings.is_some()));
        for (f, was) in &walked {
            let now = walk(f.clone(), |f| reader.get_logs_with_stats(f).unwrap());
            assert_eq!(now.len(), was.len(), "{f:?}");
            for ((page, stats), (was_page, was_stats)) in now.iter().zip(was) {
                assert!(page == was_page, "{f:?}");
                // A scan's data frames count the whole segment it reads.
                if stats.plan == QueryPlan::Postings {
                    assert_eq!(stats, was_stats, "{f:?}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Selective filters are planned as postings lookups on a fully
/// indexed archive (the planner actually exercises the index —
/// otherwise the identity property above proves nothing).
#[test]
fn selective_filters_use_the_postings_plan() {
    check_seeds("PLANNER_SEED", 0x0009_1A77_E002, 256, |rng| {
        let filter = arb_selective_filter(rng);
        let reader = StoreReader::open(archive_root()).unwrap();
        let (_, stats) = reader.get_logs_with_stats(&filter).unwrap();
        let genesis = reader.timeline().genesis_number;
        let head = reader.head_block().unwrap();
        match filter.window(genesis, head) {
            Some(_) => assert_eq!(stats.plan, QueryPlan::Postings),
            // An empty window answers empty without consulting segments.
            None => assert!(stats.segments_read == 0 && stats.postings_pages_read == 0),
        }
    });
}

/// Aggregates agree with the forced page fold for every group-by,
/// whether the planner answered from the rollup tables or not.
#[test]
fn aggregates_match_the_fold() {
    check_seeds("PLANNER_SEED", 0x0009_1A77_E003, 256, |rng| {
        let filter = arb_filter(rng);
        let group_by = [GroupBy::Kind, GroupBy::Address, GroupBy::Epoch][rng.below(3) as usize];
        // Rollup eligibility requires the orthogonal dimension free; the
        // filter may or may not satisfy that — both paths must agree.
        let reader = StoreReader::open(archive_root()).unwrap();
        let (rows, stats) = reader.aggregate(&filter, group_by).unwrap();
        let (fold_rows, _) = reader.aggregate_fold(&filter, group_by).unwrap();
        assert_eq!(rows, fold_rows);
        if stats.plan == QueryPlan::Rollup {
            assert_eq!(stats.segments_read, 0);
            assert_eq!(stats.data_frames_read, 0);
            assert_eq!(stats.rollup_reads, 1);
        }
    });
}

/// Flip any single bit of any sidecar index: every query still
/// returns exactly the scan's answer — a torn or corrupted index
/// degrades to the scan, never to a wrong page or a query error.
#[test]
fn bitflipped_sidecar_degrades_to_scan() {
    check_seeds("PLANNER_SEED", 0x0009_1A77_E004, 256, |rng| {
        let filter = arb_selective_filter(rng);
        let dir = scratch_dir("planner-prop-flip");
        let chain = test_chain(8, 2);
        let mut w = StoreWriter::create(&dir, chain.timeline().clone(), 4).unwrap();
        w.ingest(&chain).unwrap();
        drop(w);

        let idx = dir.join(mev_store::index_file_name(rng.below(2)));
        let mut bytes = std::fs::read(&idx).unwrap();
        let pos = rng.below(bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << rng.below(8);
        std::fs::write(&idx, &bytes).unwrap();

        let reader = StoreReader::open(&dir).unwrap();
        let (page, _) = reader.get_logs_with_stats(&filter).unwrap();
        let (scan, _) = reader.get_logs_scan_with_stats(&filter).unwrap();
        assert_eq!(&page.entries, &scan.entries);
        assert_eq!(page.next, scan.next);
        // The in-memory chain agrees too (first page of the same walk).
        let (chain_page, _) = chain.get_logs_with_stats(&filter).unwrap();
        assert_eq!(&page.entries, &chain_page.entries);

        std::fs::remove_dir_all(&dir).ok();
    });
}
