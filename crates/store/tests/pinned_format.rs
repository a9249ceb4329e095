//! The on-disk format, pinned by bytes.
//!
//! `tests/pinned_archive/` holds a tiny committed archive: a hand-built
//! seven-block chain in 4-block segments. `create` writes the empty
//! store's `MANIFEST` snapshot; a batch `ingest` of the first six blocks
//! writes one sealed segment with its compact sidecar, a 2-block tail
//! (which has no sidecar), and one delta to `MANIFEST`; one
//! `ingest_tail` of the seventh block then grows the tail and appends a
//! second delta.
//! The chain uses every `Action`, `LogEvent`, `TxFee`, `ExecOutcome` and
//! `GroundTruth` variant and is written out literally (no PRNG, whose
//! streams differ between generator implementations). The test rebuilds
//! the archive and compares every file byte for byte, so any change to
//! the frame codec, the frame layout, the sidecar, the manifest snapshot
//! or its deltas shows up here and must come with a format version
//! bump.
//!
//! After a deliberate format change, regenerate the fixture with
//!
//! ```text
//! PIN_ARCHIVE_BLESS=1 cargo test -p mev-store --test pinned_format \
//!     archive_bytes_match_the_pinned_fixture
//! ```
//!
//! and commit the new files together with the version bump. A change of
//! writer policy alone — which commits snapshot, say — moves bytes that
//! every reader already reads: re-bless without a bump, after checking
//! that only the files the policy writes changed.

use mev_chain::ChainStore;
use mev_store::snapshot_log::{FRAME_DELTA, FRAME_SNAPSHOT};
use mev_store::testutil::scratch_dir;
use mev_store::{SliceFrameReader, StoreReader, StoreWriter, FORMAT_VERSION};
use mev_types::codec;
use mev_types::{
    Action, Address, Block, BlockHeader, ExchangeId, ExecOutcome, Gas, GroundTruth,
    LendingPlatformId, Log, LogEvent, PoolId, Receipt, SwapCall, Timeline, TokenId, Transaction,
    TxFee, Wei, H256,
};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/pinned_archive")
}

fn pool(i: u32) -> PoolId {
    PoolId {
        exchange: ExchangeId::ALL[i as usize % 8],
        index: i,
    }
}

fn swap(i: u32) -> SwapCall {
    SwapCall {
        pool: pool(i),
        token_in: TokenId::WETH,
        token_out: TokenId(i + 1),
        amount_in: 1_000_000_000_000_000_000 * (i as u128 + 1),
        min_amount_out: 900 + i as u128,
    }
}

/// Transaction `k`'s action: `k` walks the eleven variants.
fn action(k: u32) -> Action {
    let a = Address::from_index(100 + k as u64);
    match k % 11 {
        0 => Action::Transfer {
            to: a,
            value: Wei(5 * 10u128.pow(17)),
        },
        1 => Action::Swap(swap(k)),
        2 => Action::Route(vec![swap(k), swap(k + 1)]),
        3 => Action::Deposit {
            platform: LendingPlatformId::AaveV1,
            token: TokenId(2),
            amount: 40_000,
        },
        4 => Action::Borrow {
            platform: LendingPlatformId::AaveV2,
            token: TokenId(3),
            amount: 7_000,
        },
        5 => Action::Repay {
            platform: LendingPlatformId::Compound,
            token: TokenId(3),
            amount: 7_001,
        },
        6 => Action::Liquidate {
            platform: LendingPlatformId::AaveV2,
            borrower: a,
            debt_token: TokenId(3),
            repay_amount: u128::MAX / 3,
        },
        7 => Action::OracleUpdate {
            token: TokenId(4),
            price_wei: 123_456_789,
        },
        8 => Action::FlashLoan {
            platform: LendingPlatformId::DyDx,
            token: TokenId::WETH,
            amount: 10u128.pow(21),
            inner: vec![Action::Swap(swap(k)), Action::Other { gas: Gas(1) }],
        },
        9 => Action::Payout {
            recipients: vec![(a, Wei(1)), (Address::from_index(7), Wei(2))],
        },
        _ => Action::Other { gas: Gas(90_000) },
    }
}

/// Log `j`'s event: `j` walks the nine variants.
fn event(j: u32) -> LogEvent {
    let a = Address::from_index(200 + j as u64);
    let b = Address::from_index(300 + j as u64);
    match j % 9 {
        0 => LogEvent::Transfer {
            token: TokenId::WETH,
            from: a,
            to: b,
            amount: 10u128.pow(18) + j as u128,
        },
        1 => LogEvent::Swap {
            pool: pool(j),
            sender: a,
            token_in: TokenId::WETH,
            amount_in: 2_000,
            token_out: TokenId(1),
            amount_out: 1_990,
        },
        2 => LogEvent::Deposit {
            platform: LendingPlatformId::AaveV1,
            user: a,
            token: TokenId(2),
            amount: 40_000,
        },
        3 => LogEvent::Borrow {
            platform: LendingPlatformId::AaveV2,
            user: a,
            token: TokenId(3),
            amount: 7_000,
        },
        4 => LogEvent::Repay {
            platform: LendingPlatformId::Compound,
            user: a,
            token: TokenId(3),
            amount: 7_001,
        },
        5 => LogEvent::Liquidation {
            platform: LendingPlatformId::AaveV2,
            liquidator: a,
            borrower: b,
            debt_token: TokenId(3),
            debt_repaid: 3_500,
            collateral_token: TokenId(2),
            collateral_seized: 3_850,
        },
        6 => LogEvent::FlashLoan {
            platform: LendingPlatformId::DyDx,
            initiator: a,
            token: TokenId::WETH,
            amount: 10u128.pow(21),
            fee: 2,
        },
        7 => LogEvent::OracleUpdate {
            token: TokenId(4),
            price_wei: 123_456_789,
        },
        _ => LogEvent::Payout {
            payer: a,
            recipients: 2,
            total: Wei(3),
        },
    }
}

const GROUND_TRUTHS: [Option<GroundTruth>; 9] = [
    None,
    Some(GroundTruth::SandwichFront),
    Some(GroundTruth::SandwichBack),
    Some(GroundTruth::SandwichVictim),
    Some(GroundTruth::Arbitrage),
    Some(GroundTruth::Liquidation),
    Some(GroundTruth::OrdinaryTrade),
    Some(GroundTruth::Payout),
    Some(GroundTruth::Background),
];

/// Blocks in the pinned chain; the batch part ingests all but the last.
const BLOCKS: u32 = 7;

/// `blocks` blocks of two transactions each: transaction `k = 2·block +
/// i`. A shorter chain is a prefix of a longer one.
fn pinned_chain(blocks: u32) -> ChainStore {
    let tl = Timeline::paper_span(100);
    let mut chain = ChainStore::new(tl.clone());
    for b in 0..blocks {
        let number = tl.genesis_number + b as u64;
        let mut transactions = Vec::new();
        let mut receipts = Vec::new();
        for i in 0..2u32 {
            let k = 2 * b + i;
            let fee = if k % 2 == 0 {
                TxFee::Legacy {
                    gas_price: Wei(50_000_000_000),
                }
            } else {
                TxFee::Eip1559 {
                    max_fee: Wei(90_000_000_000),
                    max_priority: Wei(2_000_000_000),
                }
            };
            let tx = Transaction::new(
                Address::from_index(10 + k as u64),
                k as u64,
                fee,
                Gas(300_000),
                action(k),
                Wei(k as u128 * 1_000),
                GROUND_TRUTHS[k as usize % 9],
            );
            let reverted = k % 5 == 4;
            let logs = if reverted {
                Vec::new()
            } else {
                vec![
                    Log::new(Address::from_index(1 + k as u64 % 3), event(k)),
                    Log::new(Address::from_index(2), event(k + 4)),
                ]
            };
            receipts.push(Receipt {
                tx_hash: tx.hash(),
                index: i,
                from: tx.from,
                outcome: if reverted {
                    ExecOutcome::Reverted
                } else {
                    ExecOutcome::Success
                },
                gas_used: Gas(120_000 + k as u64),
                effective_gas_price: Wei(50_000_000_000),
                miner_fee: Wei(2_000_000_000 * 120_000),
                coinbase_transfer: Wei(k as u128 * 1_000),
                logs,
            });
            transactions.push(tx);
        }
        let header = BlockHeader {
            number,
            parent_hash: H256([b as u8; 32]),
            miner: Address::from_index(7),
            timestamp: tl.timestamp_of(number),
            gas_used: Gas(240_000),
            gas_limit: Gas(30_000_000),
            base_fee: Wei(if b < 3 { 0 } else { 48_000_000_000 }),
        };
        chain.push(
            Block {
                header,
                transactions,
            },
            receipts,
        );
    }
    chain
}

/// Build the pinned archive under `dir`: an empty-store snapshot, a batch
/// ingest (manifest delta), then one tail commit (manifest delta).
fn write_archive(dir: &Path) {
    let batch = pinned_chain(BLOCKS - 1);
    let mut w = StoreWriter::create(dir, batch.timeline().clone(), 4).expect("create store");
    w.ingest(&batch).expect("ingest pinned chain");
    w.ingest_tail(&pinned_chain(BLOCKS))
        .expect("ingest the pinned tail");
}

/// `(file name, bytes)` of every file under `dir`, sorted by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("list archive")
        .map(|e| {
            let e = e.expect("directory entry");
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).expect("read archive file"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn archive_bytes_match_the_pinned_fixture() {
    let fresh = scratch_dir("pinned-format");
    write_archive(&fresh);
    let fixture = fixture_dir();
    if std::env::var_os("PIN_ARCHIVE_BLESS").is_some() {
        std::fs::remove_dir_all(&fixture).ok();
        std::fs::create_dir_all(&fixture).unwrap();
        for (name, bytes) in files(&fresh) {
            std::fs::write(fixture.join(name), bytes).unwrap();
        }
    }
    let got = files(&fresh);
    let want = files(&fixture);
    let names = |fs: &[(String, Vec<u8>)]| fs.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(
        names(&got),
        vec![
            "MANIFEST",
            "seg-00000.idx",
            "seg-00000.seg",
            "seg-00001.seg"
        ]
    );
    assert_eq!(names(&got), names(&want));
    for ((name, g), (_, w)) in got.iter().zip(&want) {
        let first_diff = g.iter().zip(w).position(|(a, b)| a != b);
        assert!(
            g == w,
            "{name} differs from the pinned fixture ({} vs {} bytes, first difference at {:?}); \
             after a deliberate format change bump FORMAT_VERSION and rerun with PIN_ARCHIVE_BLESS=1",
            g.len(),
            w.len(),
            first_diff
        );
    }
    std::fs::remove_dir_all(&fresh).ok();
}

#[test]
fn pinned_fixture_reads_back_as_the_chain() {
    let fixture = fixture_dir();
    let manifest = mev_store::Manifest::load(&fixture).unwrap();
    assert_eq!(manifest.version, FORMAT_VERSION);
    let reader = StoreReader::open(&fixture).unwrap();
    let segs = reader.segments();
    assert_eq!(segs.len(), 2);
    assert_eq!((segs[0].blocks, segs[1].blocks), (4, 3));
    // The batch and tail commits are two deltas on top of the empty
    // store's snapshot (both far below the snapshot floor).
    let bytes = std::fs::read(fixture.join(mev_store::MANIFEST_FILE)).unwrap();
    let mut frames = SliceFrameReader::new(&bytes, &fixture, bytes.len() as u64);
    let snapshot = frames.next_frame().unwrap().unwrap();
    assert_eq!(snapshot.kind, FRAME_SNAPSHOT);
    let snapshot: mev_store::Manifest = codec::from_slice(snapshot.payload).unwrap();
    assert_eq!(snapshot.commit_seq + 2, manifest.commit_seq);
    assert!(snapshot.segments.is_empty());
    for _ in 0..2 {
        let delta = frames.next_frame().unwrap().unwrap();
        assert_eq!(delta.kind, FRAME_DELTA);
    }
    assert!(frames.next_frame().unwrap().is_none());
    assert_eq!(segs[1].postings, None, "the open tail has no sidecar");
    let report = reader.verify().unwrap();
    assert_eq!((report.blocks, report.indexes, report.rollups), (7, 2, 1));
    let chain = pinned_chain(BLOCKS);
    let mut entries = Vec::new();
    for meta in segs {
        entries.extend(mev_store::segment::read_segment(&fixture, meta).unwrap());
    }
    let expected: Vec<(Block, Vec<Receipt>)> =
        chain.iter().map(|(b, r)| (b.clone(), r.to_vec())).collect();
    let got: Vec<(Block, Vec<Receipt>)> =
        entries.into_iter().map(|e| (e.block, e.receipts)).collect();
    assert_eq!(got, expected);
}
