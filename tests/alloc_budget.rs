//! Tier-2 allocation budget for the hot detection path.
//!
//! The v2 interned columnar `BlockIndex` exists so that steady-state
//! detection allocates almost nothing per block: detectors read
//! zero-copy event slices and group by dense `u32` ids, allocating only
//! when they actually emit a `Detection`. This test pins that property
//! with a counting global allocator: a serial `Inspector::run` over a
//! prebuilt index must stay under a (generous) allocations-per-block
//! ceiling, so an accidental per-swap `String`/`Vec`/`HashMap` revival
//! shows up as a counted regression rather than a silent slowdown.
//!
//! Run explicitly (CI's perf-smoke job does):
//!
//! ```sh
//! cargo test --test alloc_budget -- --ignored
//! ```
//!
//! It is `#[ignore]`d in the default tier-1 pass because a process-wide
//! counting allocator taxes every other test in the same binary and the
//! measured count is only meaningful single-threaded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations (alloc + realloc) process-wide.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; every call forwards to `System`"
)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Ceiling on mean heap allocations per block for a serial run over a
/// prebuilt index. The measured value on `Scenario::quick()` is far
/// lower; the slack absorbs detection-vector growth doublings, per-kind
/// emit allocations, and obs counter registration without inviting a
/// flaky pin.
const MAX_ALLOCATIONS_PER_BLOCK: u64 = 256;

/// Ceiling on mean heap allocations per block for the live-follow path
/// (incremental index extension + oracle replay + sharded detection +
/// sorted merge, measured across every advance cycle). Higher than the
/// prebuilt-index budget because following also pays the per-block
/// record decode and column interning the batch path amortises into its
/// one-off `BlockIndex::build`, plus per-cycle detection-set re-sorts —
/// all amortised over the cycle's window here.
const MAX_LIVE_ALLOCATIONS_PER_BLOCK: u64 = 768;

#[test]
#[ignore = "tier-2: run via `cargo test --test alloc_budget -- --ignored` (CI perf-smoke)"]
fn serial_inspect_over_prebuilt_index_stays_under_allocation_budget() {
    let out = mev_sim::Simulation::new(mev_sim::Scenario::quick()).run();
    let chain = &out.chain;
    let api = &out.blocks_api;
    let index = std::sync::Arc::new(mev_core::BlockIndex::build(chain));
    let blocks = index.len() as u64;
    assert!(blocks > 0, "quick scenario produced no blocks");

    // Warm up once so lazily-registered obs metrics and detection-vector
    // capacity discovery do not bill the measured pass.
    let warm = mev_core::Inspector::new(chain, api)
        .threads(1)
        .with_index(index.clone())
        .run()
        .expect("warm-up run");

    let before = allocations();
    let measured = mev_core::Inspector::new(chain, api)
        .threads(1)
        .with_index(index.clone())
        .run()
        .expect("measured run");
    let spent = allocations() - before;

    assert_eq!(
        warm.detections, measured.detections,
        "warm-up and measured runs must agree"
    );
    let per_block = spent / blocks;
    eprintln!(
        "alloc budget: {spent} allocations over {blocks} blocks \
         ({per_block}/block, ceiling {MAX_ALLOCATIONS_PER_BLOCK})"
    );
    assert!(
        per_block <= MAX_ALLOCATIONS_PER_BLOCK,
        "detection hot path regressed to {per_block} allocations/block \
         (ceiling {MAX_ALLOCATIONS_PER_BLOCK}); look for per-block String/Vec/HashMap churn"
    );
}

/// Ceiling on mean heap allocations per block for the streaming
/// store-backed index build ([`mev_core::BlockIndex::build_from_store`]
/// on a multi-thread decode pool). Much higher than the detection
/// budgets because this path *is* the build: every block pays its JSON
/// frame decode (per-tx, per-log vector and string allocations) plus
/// column interning — costs the prebuilt-index budget amortises away.
/// The ceiling bounds regression creep (an accidental per-row re-decode
/// or per-block clone doubles the count), not steady-state detection.
const MAX_STREAMING_BUILD_ALLOCATIONS_PER_BLOCK: u64 = 4096;

/// The streaming store-backed build: decode segments on a worker pool,
/// intern in order, and stay under a per-block allocation ceiling. The
/// store ingest is unmeasured setup; only `build_from_store` is billed.
#[test]
#[ignore = "tier-2: run via `cargo test --test alloc_budget -- --ignored` (CI perf-smoke)"]
fn streaming_parallel_store_build_stays_under_allocation_budget() {
    let out = mev_sim::Simulation::new(mev_sim::Scenario::quick()).run();
    let chain = &out.chain;
    let blocks = chain.len() as u64;
    assert!(blocks > 0, "quick scenario produced no blocks");

    let dir =
        std::env::temp_dir().join(format!("flashpan-alloc-store-build-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut w =
        mev_store::StoreWriter::create(&dir, chain.timeline().clone(), 64).expect("create store");
    w.ingest(chain).expect("ingest");
    drop(w);
    let store = mev_store::StoreReader::open(&dir)
        .expect("open store")
        .with_decode_threads(4);

    // Warm up once so obs registration, thread-pool spin-up, and month
    // table faults do not bill the measured pass.
    let warm = mev_core::BlockIndex::build_from_store(&store).expect("warm-up build");

    let before = allocations();
    let measured = mev_core::BlockIndex::build_from_store(&store).expect("measured build");
    let spent = allocations() - before;

    assert_eq!(warm, measured, "warm-up and measured builds must agree");
    assert_eq!(
        measured,
        mev_core::BlockIndex::build(chain),
        "store-backed build must be bit-identical to the in-memory build"
    );
    let per_block = spent / blocks;
    eprintln!(
        "streaming build alloc budget: {spent} allocations over {blocks} blocks \
         ({per_block}/block, ceiling {MAX_STREAMING_BUILD_ALLOCATIONS_PER_BLOCK})"
    );
    assert!(
        per_block <= MAX_STREAMING_BUILD_ALLOCATIONS_PER_BLOCK,
        "streaming store build regressed to {per_block} allocations/block \
         (ceiling {MAX_STREAMING_BUILD_ALLOCATIONS_PER_BLOCK}); look for per-row \
         re-decodes or per-block clones in the decode/intern pipeline"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The streaming/live counterpart: follow a prerecorded chain window by
/// window through a [`mev_live::TailPipeline`] and bill *only* the
/// follower's work — `extend_from_chain` (decode + intern), oracle
/// replay, sharded `detect_positions`, and the sorted merge. The chain
/// windows are replayed into the growing store outside the measured
/// regions, so block production/cloning never counts against the
/// follower budget.
#[test]
#[ignore = "tier-2: run via `cargo test --test alloc_budget -- --ignored` (CI perf-smoke)"]
fn live_follow_pipeline_stays_under_allocation_budget() {
    use mev_live::{ShardPlan, TailPipeline};

    let out = mev_sim::Simulation::new(mev_sim::Scenario::quick()).run();
    let chain = &out.chain;
    let api = &out.blocks_api;
    let genesis = chain.timeline().genesis_number;
    let blocks = chain.len() as u64;
    assert!(blocks > 0, "quick scenario produced no blocks");

    let plan = || {
        let mut p = ShardPlan::new(genesis, 64);
        p.shards = 2;
        p.threads_per_shard = 1;
        p
    };

    // Warm up a full follow once so lazily-registered obs metrics
    // (live.* counters, per-shard span names) and allocator warmup do
    // not bill the measured pass.
    {
        let mut warm = TailPipeline::new(plan());
        warm.advance(chain, api).expect("warm-up advance");
        warm.finalize(api).expect("warm-up finalize");
    }

    const WINDOW: u64 = 64;
    let mut growing = mev_chain::ChainStore::new(chain.timeline().clone());
    let mut pipeline = TailPipeline::new(plan());
    let mut spent = 0u64;
    let mut next = genesis;
    let head = chain.head_number().expect("non-empty chain");
    while next <= head {
        let upto = (next + WINDOW - 1).min(head);
        // Unmeasured: replay the prerecorded window into the followed
        // chain (stands in for the producing simulation).
        for (block, receipts) in chain.range(next, upto) {
            growing.push(block.clone(), receipts.to_vec());
        }
        next = upto + 1;
        // Measured: one advance cycle of the follower.
        let before = allocations();
        pipeline.advance(&growing, api).expect("advance");
        spent += allocations() - before;
    }
    let before = allocations();
    pipeline.finalize(api).expect("finalize");
    spent += allocations() - before;

    // The followed result must be the batch result (the identity the
    // live tests pin; asserted here so the budget never pins a broken
    // pipeline).
    let cold = mev_core::Inspector::new(chain, api)
        .threads(1)
        .run()
        .expect("cold run");
    assert_eq!(
        cold.detections,
        pipeline.detections(),
        "live-followed detections must match the cold batch run"
    );

    let per_block = spent / blocks;
    eprintln!(
        "live alloc budget: {spent} allocations over {blocks} blocks \
         ({per_block}/block, ceiling {MAX_LIVE_ALLOCATIONS_PER_BLOCK})"
    );
    assert!(
        per_block <= MAX_LIVE_ALLOCATIONS_PER_BLOCK,
        "live-follow hot path regressed to {per_block} allocations/block \
         (ceiling {MAX_LIVE_ALLOCATIONS_PER_BLOCK}); look for per-block \
         String/Vec/HashMap churn in extend/detect/merge"
    );
}
