//! Warm postings queries. A long-lived reader keeps each segment's opened
//! sidecar, and every row chunk it has decoded, in its segment cache;
//! whatever it serves from there — entries, cursor and stats — must equal
//! what a freshly opened reader serves, and the entries must equal the
//! forced full scan's.
//!
//! A failure names its seed; replay one case with
//! `WARM_SEED=<seed> cargo test -p mev-store --test warm_postings`.

use mev_store::testutil::{scratch_dir, test_block};
use mev_store::{
    ChainStore, Cursor, EventKind, LogEntry, LogFilter, QueryPlan, QueryStats, StoreReader,
    StoreWriter,
};
use mev_types::seeded::{for_each_seed, Rng};
use mev_types::{Address, Timeline};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

const BASE_SEED: u64 = 0x3A12_90DD;
const CASES: u64 = 24;
const BLOCKS: u64 = 100;
/// 20 txs a block: a 32-block segment holds ~650 log rows, so every
/// sealed sidecar has two row chunks.
const TXS_PER_BLOCK: u64 = 20;
const SEGMENT_BLOCKS: u64 = 32;
/// Emitters present in every segment.
const COMMON: u64 = 12;
/// Emitters of one era each (`100 + block / 25`), so the bloom prunes
/// some segments for them.
const ERA_BLOCKS: u64 = 25;
const ABSENT: u64 = 999_999;
/// Pages walked per filter at most.
const MAX_PAGES: usize = 40;

/// A `BLOCKS`-block chain whose logs come from many emitters, in an
/// order unrelated to their sorted order. Every tx keeps its Transfer
/// log, every even block's first tx its Swap.
fn chain(seed: u64) -> ChainStore {
    let tl = Timeline::paper_span(100);
    let mut rng = Rng(seed);
    let mut chain = ChainStore::new(tl.clone());
    for i in 0..BLOCKS {
        let (block, mut receipts) = test_block(tl.genesis_number + i, TXS_PER_BLOCK);
        for log in receipts.iter_mut().flat_map(|r| r.logs.iter_mut()) {
            log.address = if rng.below(8) == 0 {
                Address::from_index(100 + i / ERA_BLOCKS)
            } else {
                Address::from_index(1 + rng.below(COMMON))
            };
        }
        chain.push(block, receipts);
    }
    chain
}

fn archive(label: &str) -> PathBuf {
    let dir = scratch_dir(label);
    let chain = chain(BASE_SEED);
    let mut w =
        StoreWriter::create(&dir, chain.timeline().clone(), SEGMENT_BLOCKS).expect("create store");
    w.ingest(&chain).expect("ingest");
    dir
}

fn random_address(rng: &mut Rng) -> Address {
    match rng.below(6) {
        0 => Address::from_index(100 + rng.below(BLOCKS / ERA_BLOCKS)),
        1 => Address::from_index(ABSENT),
        _ => Address::from_index(1 + rng.below(COMMON)),
    }
}

/// A selective filter: one or two addresses, maybe kinds, maybe a
/// window, a limit, and maybe a starting cursor inside the window.
fn random_filter(rng: &mut Rng, genesis: u64) -> LogFilter {
    let mut f = LogFilter::new().address(random_address(rng));
    if rng.below(3) == 0 {
        f = f.address(random_address(rng));
    }
    match rng.below(4) {
        0 => f = f.kind(EventKind::Transfer),
        1 => f = f.kind(EventKind::Swap),
        _ => {}
    }
    // Blocks a cursor may start at: inside the window, if there is one,
    // so the window stays non-empty and the planner still picks postings.
    let (mut lo, mut hi) = (genesis, genesis + BLOCKS - 1);
    if rng.below(3) == 0 {
        let from = genesis + rng.below(BLOCKS);
        let to = from + rng.below(BLOCKS / 2);
        f = f.from_block(from).to_block(to);
        (lo, hi) = (from, to.min(hi));
    }
    if rng.below(3) == 0 {
        f = f.after(Cursor::at_tx(
            lo + rng.below(hi - lo + 1),
            rng.below(TXS_PER_BLOCK) as u32,
        ));
    }
    f.limit(1 + rng.below(60) as usize)
}

/// One page as the API serves it.
type Page = (Vec<LogEntry>, Option<Cursor>, QueryStats);

fn page(reader: &StoreReader, f: &LogFilter) -> Page {
    let (p, stats) = reader.get_logs_with_stats(f).expect("query");
    (p.entries, p.next, stats)
}

/// Walk `f` page by page on `reader`, calling `check` on each page and
/// the filter that produced it.
fn walk(reader: &StoreReader, f: &LogFilter, mut check: impl FnMut(&LogFilter, &Page)) {
    let mut f = f.clone();
    for _ in 0..MAX_PAGES {
        let p = page(reader, &f);
        check(&f, &p);
        match p.1 {
            Some(cursor) => f = f.after(cursor),
            None => break,
        }
    }
}

fn genesis(dir: &Path) -> u64 {
    StoreReader::open(dir)
        .expect("open store")
        .timeline()
        .genesis_number
}

#[test]
fn warm_postings_match_cold_and_scan() {
    let dir = archive("warm-postings");
    let genesis = genesis(&dir);
    let segments = StoreReader::open(&dir).unwrap().segments().len();
    assert!(segments >= 4, "fixture must have several segments");
    for capacity in [1, segments] {
        let warm = StoreReader::open(&dir)
            .unwrap()
            .with_segment_cache(capacity);
        let result = for_each_seed("WARM_SEED", BASE_SEED, CASES, |seed| {
            let mut rng = Rng(seed);
            let filter = random_filter(&mut rng, genesis);
            // Twice over: the second walk is served from what the first
            // left in the cache.
            for pass in 0..2 {
                walk(&warm, &filter, |f, p| {
                    let cold = page(&StoreReader::open(&dir).unwrap(), f);
                    assert_eq!(p, &cold, "capacity {capacity}, pass {pass}, {f:?}");
                    assert_eq!(p.2.plan, QueryPlan::Postings, "{f:?}");
                    assert_eq!(p.2.data_frames_read, 0, "{f:?}");
                    let (scan, _) = warm.get_logs_scan_with_stats(f).unwrap();
                    assert_eq!(p.0, scan.entries, "scan entries, {f:?}");
                    assert_eq!(p.1, scan.next, "scan cursor, {f:?}");
                });
            }
        });
        if let Err(e) = result {
            panic!("capacity {capacity}: {e}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_postings_read_nothing_from_disk() {
    let dir = archive("warm-postings-offline");
    let genesis = genesis(&dir);
    let segments = StoreReader::open(&dir).unwrap().segments().len();
    let warm = StoreReader::open(&dir)
        .unwrap()
        .with_segment_cache(segments);
    let mut rng = Rng(BASE_SEED);
    let filters: Vec<LogFilter> = (0..CASES)
        .map(|_| random_filter(&mut rng, genesis))
        .collect();
    let mut before: Vec<Page> = Vec::new();
    for f in &filters {
        walk(&warm, f, |_, p| before.push(p.clone()));
    }
    // Move every sidecar away; the open tail has none, and its index,
    // built in memory, stays in the cache with the others.
    let mut moved = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "idx") {
            std::fs::rename(&path, path.with_extension("idx.away")).unwrap();
            moved += 1;
        }
    }
    assert_eq!(moved, segments - 1, "one sidecar file per sealed segment");
    let mut after: Vec<Page> = Vec::new();
    for f in &filters {
        walk(&warm, f, |f, p| {
            assert_eq!(p.2.plan, QueryPlan::Postings, "warm reader, {f:?}");
            after.push(p.clone());
        });
    }
    assert_eq!(before, after, "warm pages changed without their sidecars");
    // A fresh reader has nothing cached and must fall back to the scan.
    let cold = StoreReader::open(&dir).unwrap();
    let (_, _, stats) = page(&cold, &LogFilter::new().address(Address::from_index(1)));
    assert_eq!(stats.plan, QueryPlan::FullScan);
    assert_eq!(stats.planned, QueryPlan::Postings);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_warm_queries_match_serial_answers() {
    let dir = archive("warm-postings-threads");
    let genesis = genesis(&dir);
    let mut rng = Rng(BASE_SEED ^ 0x7);
    let filters: Vec<LogFilter> = (0..CASES)
        .map(|_| random_filter(&mut rng, genesis))
        .collect();
    let serial: Vec<Vec<Page>> = filters
        .iter()
        .map(|f| {
            let mut pages = Vec::new();
            walk(&StoreReader::open(&dir).unwrap(), f, |_, p| {
                pages.push(p.clone())
            });
            pages
        })
        .collect();
    // Capacity 2 under 4+ segments: the two threads evict each other's
    // slots while they read. Even rounds walk the same filter at the same
    // time, so both threads open the same sidecars and decode the same
    // chunks together; odd rounds walk the filters in opposite orders.
    let shared = Arc::new(StoreReader::open(&dir).unwrap().with_segment_cache(2));
    let start = Barrier::new(2);
    let failures: Vec<String> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2usize)
            .map(|t| {
                let (shared, filters, serial, start) = (&shared, &filters, &serial, &start);
                scope.spawn(move || {
                    let mut failures = Vec::new();
                    for round in 0..4 {
                        for k in 0..filters.len() {
                            let i = if t == 1 && round % 2 == 1 {
                                filters.len() - 1 - k
                            } else {
                                k
                            };
                            start.wait();
                            // A failed walk is recorded, not raised, so the
                            // other thread is never left at the barrier.
                            let pages = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                let mut pages = Vec::new();
                                walk(shared, &filters[i], |_, p| pages.push(p.clone()));
                                pages
                            }));
                            if pages.as_ref().ok() != Some(&serial[i]) {
                                failures.push(format!("thread {t}, round {round}, filter {i}"));
                            }
                        }
                    }
                    failures
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|h| h.join().expect("query thread"))
            .collect()
    });
    assert!(failures.is_empty(), "diverged from serial: {failures:?}");
    std::fs::remove_dir_all(&dir).ok();
}
