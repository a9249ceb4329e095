//! Seeded properties of the binary frame codec (`mev_types::codec`) on
//! the payloads the store writes.
//!
//! * **Round trip.** Random blocks that between them use every `Action`,
//!   `LogEvent`, `TxFee`, `ExecOutcome` and `GroundTruth` variant decode
//!   back to themselves, through bare payloads, through frames, and
//!   through a real store (ingest, read, sidecar rows).
//! * **Mutation.** Every truncation and random byte flips of encoded
//!   `BlockEntry`, sidecar (`RowChunk` above all) and manifest snapshot
//!   and delta payloads never panic, and no single allocation exceeds
//!   `MAX_EXPANSION` times the payload (the in-memory form of a value may
//!   outgrow its encoding; a count the bytes cannot hold is refused
//!   before anything is allocated, so a lying length costs nothing). A
//!   truncation is always a typed error; a flipped payload either fails
//!   to decode or decodes to a value that re-encodes to exactly the
//!   flipped bytes (the encoding is canonical); behind its frame CRC a
//!   flip is always a typed error.
//!
//! Each property runs `CASES` seeded cases. A failing case prints its
//! seed; `CODEC_SEED=<seed> cargo test -p mev-store --test codec_props`
//! replays only that case.

use mev_chain::ChainStore;
use mev_store::frame::{encode_frame, SliceFrameReader};
use mev_store::postings::{
    IndexBuilder, IndexHeader, PostingsTable, RowChunk, FRAME_INDEX_HEADER, FRAME_POSTINGS,
    FRAME_ROW_CHUNK,
};
use mev_store::segment::{read_segment, BlockEntry};
use mev_store::snapshot_log::{FRAME_DELTA, FRAME_SNAPSHOT};
use mev_store::testutil::{largest_alloc, scratch_dir, test_chain, AllocProbe};
use mev_store::{
    Delta, Manifest, ManifestChange, StoreError, StoreReader, StoreWriter, MANIFEST_FILE,
};
use mev_types::codec::{self, Decode, Encode, MAX_EXPANSION};
use mev_types::seeded::{for_each_seed, Rng};
use mev_types::{
    Action, Address, Block, BlockHeader, ExchangeId, ExecOutcome, Gas, GroundTruth,
    LendingPlatformId, Log, LogEvent, PoolId, Receipt, SwapCall, Timeline, TokenId, Transaction,
    TxFee, Wei, H256,
};
use std::collections::BTreeSet;
use std::path::Path;

const CASES: u64 = 48;
const BASE_SEED: u64 = 0xC0DE_C0DE_2024;

#[global_allocator]
static GLOBAL: AllocProbe = AllocProbe;

// ---- seeded generator --------------------------------------------------------

/// Store-payload-shaped draws from the shared seeded generator.
trait Draw {
    fn amount(&mut self) -> u128;
    fn wei(&mut self) -> Wei;
    fn addr(&mut self) -> Address;
    fn hash(&mut self) -> H256;
    fn token(&mut self) -> TokenId;
    fn platform(&mut self) -> LendingPlatformId;
    fn pool(&mut self) -> PoolId;
    fn swap(&mut self) -> SwapCall;
}

impl Draw for Rng {
    /// Amounts spread over every width, including 0 and `u128::MAX`.
    fn amount(&mut self) -> u128 {
        match self.below(4) {
            0 => [0, u128::MAX / 2, u128::MAX][self.below(3) as usize],
            1 => self.below(1_000) as u128,
            _ => ((self.next_u64() as u128) << 64 | self.next_u64() as u128) >> self.below(128),
        }
    }
    fn wei(&mut self) -> Wei {
        Wei(self.amount())
    }
    fn addr(&mut self) -> Address {
        Address::from_index(self.below(1 << 40))
    }
    fn hash(&mut self) -> H256 {
        let mut h = [0u8; 32];
        for chunk in h.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        H256(h)
    }
    fn token(&mut self) -> TokenId {
        TokenId(match self.below(3) {
            0 => 0,
            1 => self.below(200) as u32,
            _ => self.next_u64() as u32,
        })
    }
    fn platform(&mut self) -> LendingPlatformId {
        LendingPlatformId::ALL[self.below(4) as usize]
    }
    fn pool(&mut self) -> PoolId {
        PoolId {
            exchange: ExchangeId::ALL[self.below(8) as usize],
            index: self.below(1 << 20) as u32,
        }
    }
    fn swap(&mut self) -> SwapCall {
        SwapCall {
            pool: self.pool(),
            token_in: self.token(),
            token_out: self.token(),
            amount_in: self.amount(),
            min_amount_out: self.amount(),
        }
    }
}

const ACTION_VARIANTS: u64 = 11;
const EVENT_VARIANTS: u64 = 9;

fn action(rng: &mut Rng, variant: u64, depth: u32) -> Action {
    match variant {
        0 => Action::Transfer {
            to: rng.addr(),
            value: rng.wei(),
        },
        1 => Action::Swap(rng.swap()),
        2 => {
            let n = rng.below(4);
            Action::Route((0..n).map(|_| rng.swap()).collect())
        }
        3 => Action::Deposit {
            platform: rng.platform(),
            token: rng.token(),
            amount: rng.amount(),
        },
        4 => Action::Borrow {
            platform: rng.platform(),
            token: rng.token(),
            amount: rng.amount(),
        },
        5 => Action::Repay {
            platform: rng.platform(),
            token: rng.token(),
            amount: rng.amount(),
        },
        6 => Action::Liquidate {
            platform: rng.platform(),
            borrower: rng.addr(),
            debt_token: rng.token(),
            repay_amount: rng.amount(),
        },
        7 => Action::OracleUpdate {
            token: rng.token(),
            price_wei: rng.amount(),
        },
        8 => {
            let n = rng.below(3);
            // Nest a little: below depth 2 an inner action may itself be
            // a flash loan.
            let inner = (0..n)
                .map(|_| {
                    let v = rng.below(if depth < 2 { ACTION_VARIANTS } else { 8 });
                    action(rng, v, depth + 1)
                })
                .collect();
            Action::FlashLoan {
                platform: rng.platform(),
                token: rng.token(),
                amount: rng.amount(),
                inner,
            }
        }
        9 => Action::Payout {
            recipients: {
                let n = rng.below(5);
                (0..n).map(|_| (rng.addr(), rng.wei())).collect()
            },
        },
        _ => Action::Other {
            gas: Gas(rng.next_u64() >> rng.below(64)),
        },
    }
}

fn event(rng: &mut Rng, variant: u64) -> LogEvent {
    match variant {
        0 => LogEvent::Transfer {
            token: rng.token(),
            from: rng.addr(),
            to: rng.addr(),
            amount: rng.amount(),
        },
        1 => LogEvent::Swap {
            pool: rng.pool(),
            sender: rng.addr(),
            token_in: rng.token(),
            amount_in: rng.amount(),
            token_out: rng.token(),
            amount_out: rng.amount(),
        },
        2 => LogEvent::Deposit {
            platform: rng.platform(),
            user: rng.addr(),
            token: rng.token(),
            amount: rng.amount(),
        },
        3 => LogEvent::Borrow {
            platform: rng.platform(),
            user: rng.addr(),
            token: rng.token(),
            amount: rng.amount(),
        },
        4 => LogEvent::Repay {
            platform: rng.platform(),
            user: rng.addr(),
            token: rng.token(),
            amount: rng.amount(),
        },
        5 => LogEvent::Liquidation {
            platform: rng.platform(),
            liquidator: rng.addr(),
            borrower: rng.addr(),
            debt_token: rng.token(),
            debt_repaid: rng.amount(),
            collateral_token: rng.token(),
            collateral_seized: rng.amount(),
        },
        6 => LogEvent::FlashLoan {
            platform: rng.platform(),
            initiator: rng.addr(),
            token: rng.token(),
            amount: rng.amount(),
            fee: rng.amount(),
        },
        7 => LogEvent::OracleUpdate {
            token: rng.token(),
            price_wei: rng.amount(),
        },
        _ => LogEvent::Payout {
            payer: rng.addr(),
            recipients: rng.next_u64() as u32,
            total: rng.wei(),
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

/// A random block at `number`. Its first transactions walk every
/// `Action` variant, its logs every `LogEvent` variant, and the fee,
/// outcome and ground-truth variants cycle with the transaction index,
/// so every block on its own covers each variant; the rest is random.
fn random_entry(rng: &mut Rng, number: u64) -> BlockEntry {
    let n_txs = ACTION_VARIANTS + rng.below(6);
    let mut transactions = Vec::new();
    let mut receipts = Vec::new();
    for i in 0..n_txs {
        let variant = if i < ACTION_VARIANTS {
            i
        } else {
            rng.below(ACTION_VARIANTS)
        };
        let fee = if i % 2 == 0 {
            TxFee::Legacy {
                gas_price: rng.wei(),
            }
        } else {
            TxFee::Eip1559 {
                max_fee: rng.wei(),
                max_priority: rng.wei(),
            }
        };
        let tx = Transaction::new(
            rng.addr(),
            rng.next_u64() >> rng.below(64),
            fee,
            Gas(rng.below(30_000_000)),
            action(rng, variant, 0),
            rng.wei(),
            GROUND_TRUTHS[(i % 9) as usize],
        );
        let variants: Vec<u64> = if i == 0 {
            (0..EVENT_VARIANTS).collect()
        } else {
            let n = rng.below(4);
            (0..n).map(|_| rng.below(EVENT_VARIANTS)).collect()
        };
        let logs = variants
            .into_iter()
            .map(|v| Log::new(rng.addr(), event(rng, v)))
            .collect();
        receipts.push(Receipt {
            tx_hash: tx.hash(),
            index: i as u32,
            from: tx.from,
            outcome: if i % 3 == 1 {
                ExecOutcome::Reverted
            } else {
                ExecOutcome::Success
            },
            gas_used: Gas(rng.below(1 << 25)),
            effective_gas_price: rng.wei(),
            miner_fee: rng.wei(),
            coinbase_transfer: rng.wei(),
            logs,
        });
        transactions.push(tx);
    }
    BlockEntry {
        block: Block {
            header: BlockHeader {
                number,
                parent_hash: rng.hash(),
                miner: rng.addr(),
                timestamp: rng.next_u64() >> 20,
                gas_used: Gas(rng.next_u64()),
                gas_limit: Gas(rng.below(1 << 30)),
                base_fee: rng.wei(),
            },
            transactions,
        },
        receipts,
    }
}

/// Run `check` once per seeded case (or only `CODEC_SEED`, if set) and
/// name the seed of the first failure.
fn for_each_case(check: impl Fn(u64)) {
    if let Err(e) = for_each_seed("CODEC_SEED", BASE_SEED, CASES, check) {
        panic!("{e}");
    }
}

// ---- round trip ----------------------------------------------------------------

#[test]
fn every_variant_round_trips_through_the_codec() {
    // Coverage: the generator really emits each variant.
    let mut rng = Rng(BASE_SEED);
    let entry = random_entry(&mut rng, 1);
    let mut actions = BTreeSet::new();
    let mut events = BTreeSet::new();
    let mut fees = BTreeSet::new();
    let mut truths = BTreeSet::new();
    let mut outcomes = BTreeSet::new();
    for tx in &entry.block.transactions {
        actions.insert(format!("{:?}", std::mem::discriminant(&tx.action)));
        fees.insert(format!("{:?}", std::mem::discriminant(&tx.fee)));
        truths.insert(format!("{:?}", tx.ground_truth));
    }
    for r in &entry.receipts {
        outcomes.insert(format!("{:?}", r.outcome));
        for log in &r.logs {
            events.insert(format!("{:?}", std::mem::discriminant(&log.event)));
        }
    }
    assert_eq!(actions.len(), ACTION_VARIANTS as usize);
    assert_eq!(events.len(), EVENT_VARIANTS as usize);
    assert_eq!((fees.len(), outcomes.len(), truths.len()), (2, 2, 9));

    for_each_case(|seed| {
        let mut rng = Rng(seed);
        let number = rng.next_u64() >> 8;
        let entry = random_entry(&mut rng, number);
        let bytes = codec::to_vec(&entry);
        let back: BlockEntry = codec::from_slice(&bytes).unwrap();
        assert_eq!(back, entry);
        // Transaction hashes come back verbatim.
        for (a, b) in back
            .block
            .transactions
            .iter()
            .zip(&entry.block.transactions)
        {
            assert_eq!(a.hash(), b.hash());
        }
        // Deterministic: re-encoding the decoded value gives the same bytes.
        assert_eq!(codec::to_vec(&back), bytes);
        // And through a frame.
        let mut framed = Vec::new();
        encode_frame(&mut framed, 2, &bytes);
        let mut reader = SliceFrameReader::new(&framed, Path::new("case.seg"), framed.len() as u64);
        let frame = reader.next_frame().unwrap().unwrap();
        assert_eq!(
            codec::from_slice::<BlockEntry>(frame.payload).unwrap(),
            entry
        );
    });
}

#[test]
fn random_chains_round_trip_through_a_store() {
    for_each_case(|seed| {
        let mut rng = Rng(seed);
        let tl = Timeline::paper_span(100);
        let n = 3 + rng.below(6);
        let entries: Vec<BlockEntry> = (0..n)
            .map(|i| random_entry(&mut rng, tl.genesis_number + i))
            .collect();
        let mut chain = ChainStore::new(tl.clone());
        for e in &entries {
            chain.push(e.block.clone(), e.receipts.clone());
        }
        let dir = scratch_dir("codec-props-store");
        let mut w = StoreWriter::create(&dir, tl, 2 + rng.below(3)).unwrap();
        w.ingest(&chain).unwrap();
        let reader = StoreReader::open(&dir).unwrap();
        let mut back = Vec::new();
        for meta in reader.segments() {
            back.extend(read_segment(&dir, meta).unwrap());
        }
        assert_eq!(back, entries);
        let report = reader.verify().unwrap();
        assert_eq!(report.blocks, n);
        // Index rows, sidecar or in-memory tail, reproduce every log in
        // scan order.
        let mut rows = Vec::new();
        for meta in reader.segments() {
            let idx = mev_store::SegmentIndex::load(&dir, meta).unwrap();
            let mut rr = idx.rows();
            for row in 0..idx.header.rows as u32 {
                rows.push(rr.get(row).unwrap().log);
            }
        }
        let logs: Vec<Log> = entries
            .iter()
            .flat_map(|e| e.receipts.iter().flat_map(|r| r.logs.clone()))
            .collect();
        assert_eq!(rows, logs);
        std::fs::remove_dir_all(&dir).ok();
    });
}

// ---- mutation ----------------------------------------------------------------

/// Truncations and byte flips of one payload of type `T`.
fn mutate<T: Decode + Encode>(rng: &mut Rng, payload: &[u8]) {
    let n = payload.len();
    let bound = MAX_EXPANSION * n;
    let (clean, largest) = largest_alloc(|| codec::from_slice::<T>(payload));
    assert!(clean.is_ok(), "clean payload must decode");
    assert!(largest <= bound, "clean decode allocated {largest} bytes");
    // Every strict prefix is an error.
    for cut in 0..n {
        let (got, largest) = largest_alloc(|| codec::from_slice::<T>(&payload[..cut]));
        assert!(got.is_err(), "prefix of {cut}/{n} bytes decoded");
        assert!(largest <= bound, "prefix {cut}: allocated {largest} bytes");
    }
    // Random single- and multi-byte flips.
    for _ in 0..96 {
        let mut flipped = payload.to_vec();
        for _ in 0..1 + rng.below(3) {
            let pos = rng.below(n as u64) as usize;
            flipped[pos] ^= 1 + rng.below(255) as u8;
        }
        let (got, largest) = largest_alloc(|| codec::from_slice::<T>(&flipped));
        assert!(largest <= bound, "flip: allocated {largest} bytes of {n}");
        if let Ok(value) = got {
            assert_eq!(codec::to_vec(&value), flipped, "decode is not canonical");
        }
        // Behind its frame checksum a flip is always a typed error.
        let mut framed = Vec::new();
        encode_frame(&mut framed, 2, payload);
        let mut tampered = framed.clone();
        tampered[framed.len() - n..].copy_from_slice(&flipped);
        let mut reader =
            SliceFrameReader::new(&tampered, Path::new("case.seg"), tampered.len() as u64);
        if flipped != payload {
            assert!(matches!(
                reader.next_frame(),
                Err(StoreError::ChecksumMismatch { .. })
            ));
        }
    }
}

#[test]
fn truncated_and_flipped_block_entries_fail_cleanly() {
    for_each_case(|seed| {
        let mut rng = Rng(seed);
        let number = rng.next_u64() >> 8;
        let entry = random_entry(&mut rng, number);
        let payload = codec::to_vec(&entry);
        mutate::<BlockEntry>(&mut rng, &payload);
    });
}

#[test]
fn truncated_and_flipped_sidecar_frames_fail_cleanly() {
    for_each_case(|seed| {
        let mut rng = Rng(seed);
        let entries: Vec<BlockEntry> = (0..2 + rng.below(3))
            .map(|i| random_entry(&mut rng, 10_000_000 + i))
            .collect();
        let sidecar =
            IndexBuilder::from_entries(&entries).encode_with(0, 10_000_000, rng.below(2) == 1);
        let mut reader =
            SliceFrameReader::new(&sidecar, Path::new("case.idx"), sidecar.len() as u64);
        let mut chunks = 0;
        while let Some(frame) = reader.next_frame().unwrap() {
            match frame.kind {
                FRAME_INDEX_HEADER => mutate::<IndexHeader>(&mut rng, frame.payload),
                FRAME_POSTINGS => mutate::<PostingsTable>(&mut rng, frame.payload),
                FRAME_ROW_CHUNK => {
                    chunks += 1;
                    mutate::<RowChunk>(&mut rng, frame.payload)
                }
                other => panic!("unexpected sidecar frame kind {other}"),
            }
        }
        assert!(chunks >= 1);
    });
}

#[test]
fn truncated_and_flipped_manifest_frames_fail_cleanly() {
    for_each_case(|seed| {
        let mut rng = Rng(seed);
        // Tail commits until the manifest holds a snapshot and a delta.
        let dir = scratch_dir("codec-props-manifest");
        let segment_blocks = 3 + rng.below(4);
        let mut w = StoreWriter::create(&dir, Timeline::paper_span(100), segment_blocks).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let mut head = 0;
        let bytes = loop {
            let before = std::fs::read(&path).unwrap();
            head += 1 + rng.below(3);
            w.ingest_tail(&test_chain(head, 1 + rng.below(3))).unwrap();
            let after = std::fs::read(&path).unwrap();
            if head > 4 && after.len() > before.len() && after.starts_with(&before) {
                break after;
            }
        };
        let mut reader = SliceFrameReader::new(&bytes, &path, bytes.len() as u64);
        let mut deltas = 0;
        while let Some(frame) = reader.next_frame().unwrap() {
            match frame.kind {
                FRAME_SNAPSHOT => mutate::<Manifest>(&mut rng, frame.payload),
                FRAME_DELTA => {
                    deltas += 1;
                    mutate::<Delta<ManifestChange>>(&mut rng, frame.payload)
                }
                other => panic!("unexpected manifest frame kind {other}"),
            }
        }
        assert!(deltas >= 1);
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn lying_lengths_never_reserve_beyond_the_payload() {
    // A block entry whose transaction count claims more transactions than
    // the bytes behind it can hold: refused before any reservation.
    let mut rng = Rng(BASE_SEED);
    let entry = random_entry(&mut rng, 7);
    let mut header_only = Vec::new();
    entry.block.header.encode(&mut header_only);
    let mut payload = header_only.clone();
    let claimed = 4096u64;
    claimed.encode(&mut payload);
    payload.resize(header_only.len() + 2 + claimed as usize, 0xAB);
    let (got, largest) = largest_alloc(|| codec::from_slice::<BlockEntry>(&payload));
    assert!(got.is_err());
    assert!(largest <= payload.len(), "{largest} > {}", payload.len());
}
