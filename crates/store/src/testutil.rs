//! Deterministic fixtures shared by the store's unit, integration, and
//! property tests. Kept panic-free so it can live in the library under
//! the clippy panic lints set in `lib.rs`.

use crate::frame::{encode_frame, SliceFrameReader};
use mev_chain::ChainStore;
use mev_types::seeded::{for_each_seed, Rng};
use mev_types::{
    gwei, Action, Address, Block, BlockHeader, ExecOutcome, Gas, Log, LogEvent, Receipt, Timeline,
    TokenId, Transaction, TxFee, Wei, H256,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory under the system temp dir. Best-effort
/// creation: tests fail naturally on first use if the filesystem is
/// unavailable.
#[expect(
    clippy::let_underscore_must_use,
    reason = "best effort: a test fails at its first use of a directory that could not be made"
)]
pub fn scratch_dir(label: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "mev-store-{label}-{pid}-{n}",
        pid = std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// A deterministic block at `number` with `n_txs` transactions. Every
/// transaction emits a Transfer from address `A(1)`; even-numbered
/// blocks additionally emit a Swap from `A(2)` on their first
/// transaction — so address- and kind-filters have something to select.
pub fn test_block(number: u64, n_txs: u64) -> (Block, Vec<Receipt>) {
    let tl = Timeline::paper_span(100);
    let txs: Vec<Transaction> = (0..n_txs)
        .map(|i| {
            Transaction::new(
                Address::from_index(number * 1000 + i),
                0,
                TxFee::Legacy {
                    gas_price: gwei(50),
                },
                Gas(100_000),
                Action::Other { gas: Gas(100_000) },
                Wei::ZERO,
                None,
            )
        })
        .collect();
    let receipts: Vec<Receipt> = txs
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut logs = vec![Log::new(
                Address::from_index(1),
                LogEvent::Transfer {
                    token: TokenId::WETH,
                    from: t.from,
                    to: Address::ZERO,
                    amount: (number + i as u64) as u128,
                },
            )];
            if number.is_multiple_of(2) && i == 0 {
                logs.push(Log::new(
                    Address::from_index(2),
                    LogEvent::Swap {
                        pool: mev_types::PoolId {
                            exchange: mev_types::ExchangeId::UniswapV2,
                            index: 0,
                        },
                        sender: t.from,
                        token_in: TokenId::WETH,
                        amount_in: 1,
                        token_out: TokenId(1),
                        amount_out: 1,
                    },
                ));
            }
            Receipt {
                tx_hash: t.hash(),
                index: i as u32,
                from: t.from,
                outcome: ExecOutcome::Success,
                gas_used: Gas(100_000),
                effective_gas_price: gwei(50),
                miner_fee: Gas(100_000).cost(gwei(50)),
                coinbase_transfer: Wei::ZERO,
                logs,
            }
        })
        .collect();
    let header = BlockHeader {
        number,
        parent_hash: H256::zero(),
        miner: Address::from_index(7),
        timestamp: tl.timestamp_of(number),
        gas_used: Gas(100_000 * n_txs),
        gas_limit: Gas(30_000_000),
        base_fee: Wei::ZERO,
    };
    (
        Block {
            header,
            transactions: txs,
        },
        receipts,
    )
}

/// A deterministic `n`-block chain of [`test_block`]s on the paper
/// timeline.
pub fn test_chain(n: u64, txs_per_block: u64) -> ChainStore {
    let tl = Timeline::paper_span(100);
    let mut chain = ChainStore::new(tl.clone());
    for i in 0..n {
        let (block, receipts) = test_block(tl.genesis_number + i, txs_per_block);
        chain.push(block, receipts);
    }
    chain
}

/// A copy of the snapshot-and-delta log `bytes` with one frame damaged
/// the way a parser must survive: its payload truncated, one to three
/// bytes flipped, or a byte replaced by a huge varint (an inflated length
/// or count field). The frame is re-framed with a valid CRC, so the
/// decoder sees the damage, not only the checksum. Frames past a torn
/// tail are dropped.
pub fn mutate_log(rng: &mut Rng, bytes: &[u8]) -> Vec<u8> {
    let mut frames: Vec<(u8, Vec<u8>)> = Vec::new();
    let mut reader = SliceFrameReader::new(bytes, Path::new("log"), bytes.len() as u64);
    while let Ok(Some(frame)) = reader.next_frame() {
        frames.push((frame.kind, frame.payload.to_vec()));
    }
    let k = rng.below(frames.len() as u64) as usize;
    if let Some((_, payload)) = frames.get_mut(k) {
        let pos = rng.below(payload.len() as u64) as usize;
        match rng.below(3) {
            0 => payload.truncate(pos),
            1 => {
                for _ in 0..1 + rng.below(3) {
                    let at = rng.below(payload.len() as u64) as usize;
                    if let Some(b) = payload.get_mut(at) {
                        *b ^= 1 + rng.below(255) as u8;
                    }
                }
            }
            _ => {
                let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
                let end = (pos + 1).min(payload.len());
                payload.splice(pos..end, huge);
            }
        }
    }
    let mut out = Vec::new();
    for (kind, payload) in &frames {
        encode_frame(&mut out, *kind, payload);
    }
    out
}

/// Parser mutation of a snapshot-and-delta log: for each seed (see
/// [`mev_types::seeded::for_each_seed`], replayed through `var`), write `mutations` damaged
/// copies of `clean` ([`mutate_log`]) to `path` and run `load` on each.
/// `load` checks its own result — a typed error or a state that
/// validates; here it must not panic, nor make one allocation larger
/// than `MAX_EXPANSION` times the damaged file (given [`AllocProbe`] as
/// the global allocator).
pub fn check_log_mutations(
    var: &str,
    base: u64,
    path: &Path,
    clean: &[u8],
    load: impl Fn(),
) -> Result<(), String> {
    for_each_seed(var, base, 8, |seed| {
        let mut rng = Rng(seed);
        for _ in 0..64 {
            let mutated = mutate_log(&mut rng, clean);
            let written = std::fs::write(path, &mutated);
            assert!(written.is_ok(), "writing {}: {written:?}", path.display());
            let ((), largest) = largest_alloc(&load);
            assert!(
                largest <= mev_types::codec::MAX_EXPANSION * mutated.len(),
                "one allocation of {largest} bytes for a {}-byte log",
                mutated.len()
            );
        }
    })
}

/// A system allocator that remembers, on threads inside
/// [`largest_alloc`], the largest single allocation request. A test
/// binary installs it with `#[global_allocator]`.
pub struct AllocProbe;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // Neither slot needs dropping, so neither is ever destroyed and
    // `with` cannot fail, even while a thread exits.
    if TRACKING.with(Cell::get) {
        LARGEST.with(|m| m.set(m.get().max(size)));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; every call forwards to `System`"
)]
unsafe impl GlobalAlloc for AllocProbe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Run `f`, returning its result and the largest single allocation it
/// made (0 unless [`AllocProbe`] is the global allocator).
pub fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, LARGEST.with(|m| m.get()))
}
