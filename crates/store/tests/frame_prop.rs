//! Property tests for the store frame codec:
//! encode→decode round-trips for blocks/receipts/logs, corrupted
//! checksums rejected as *errors* (never panics), truncated tails
//! detected on open. Each property runs 256 seeded cases;
//! `FRAME_SEED=<seed>` replays one.

use mev_store::frame::{encode_frame, SliceFrameReader, FRAME_HEADER_BYTES};
use mev_store::segment::BlockEntry;
use mev_store::testutil::test_block;
use mev_store::StoreError;
use mev_types::codec;
use mev_types::seeded::{check_seeds, Rng};
use mev_types::{Address, Log, LogEvent, TokenId};
use std::path::Path;

fn read_all(bytes: &[u8], limit: u64) -> Result<Vec<(u8, Vec<u8>)>, StoreError> {
    let mut r = SliceFrameReader::new(bytes, Path::new("prop.seg"), limit);
    let mut out = Vec::new();
    while let Some(f) = r.next_frame()? {
        out.push((f.kind, f.payload.to_vec()));
    }
    Ok(out)
}

/// `lo..hi` random bytes.
fn bytes(rng: &mut Rng, lo: u64, hi: u64) -> Vec<u8> {
    (0..lo + rng.below(hi - lo))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

/// An arbitrary decoded log event, covering every variant.
fn arb_event(rng: &mut Rng) -> LogEvent {
    let addr = |rng: &mut Rng| Address::from_index(rng.below(1_000_000));
    let token = |rng: &mut Rng| TokenId(rng.below(64) as u32);
    match rng.below(6) {
        0 => LogEvent::Transfer {
            token: token(rng),
            from: addr(rng),
            to: addr(rng),
            amount: rng.next_u128(),
        },
        1 => LogEvent::Swap {
            pool: mev_types::PoolId {
                exchange: mev_types::ExchangeId::UniswapV2,
                index: 3,
            },
            sender: addr(rng),
            token_in: token(rng),
            amount_in: rng.next_u128(),
            token_out: token(rng),
            amount_out: rng.next_u128(),
        },
        2 => LogEvent::Deposit {
            platform: mev_types::LendingPlatformId::AaveV2,
            user: addr(rng),
            token: token(rng),
            amount: rng.next_u128(),
        },
        3 => LogEvent::Liquidation {
            platform: mev_types::LendingPlatformId::Compound,
            liquidator: addr(rng),
            borrower: addr(rng),
            debt_token: token(rng),
            debt_repaid: rng.next_u128(),
            collateral_token: token(rng),
            collateral_seized: rng.next_u128(),
        },
        4 => LogEvent::FlashLoan {
            platform: mev_types::LendingPlatformId::AaveV2,
            initiator: addr(rng),
            token: token(rng),
            amount: rng.next_u128(),
            fee: rng.next_u128(),
        },
        _ => LogEvent::OracleUpdate {
            token: token(rng),
            price_wei: rng.next_u128(),
        },
    }
}

/// Arbitrary frame sequences round-trip exactly.
#[test]
fn frames_round_trip() {
    check_seeds("FRAME_SEED", 0xF4A3_E001, 256, |rng| {
        let frames: Vec<(u8, Vec<u8>)> = (0..1 + rng.below(11))
            .map(|_| (rng.next_u64() as u8, bytes(rng, 0, 512)))
            .collect();
        let mut buf = Vec::new();
        for (kind, payload) in &frames {
            encode_frame(&mut buf, *kind, payload);
        }
        let decoded = read_all(&buf, buf.len() as u64).unwrap();
        assert_eq!(decoded, frames);
    });
}

/// Flipping any single byte of a one-frame stream is rejected as an
/// error — and never panics. (A flip in the length field may also
/// surface as truncation or an implausible length; all are errors.)
#[test]
fn any_single_bitflip_is_rejected() {
    check_seeds("FRAME_SEED", 0xF4A3_E002, 256, |rng| {
        let payload = bytes(rng, 1, 256);
        let mut buf = Vec::new();
        encode_frame(&mut buf, 2, &payload);
        let pos = rng.below(buf.len() as u64) as usize;
        buf[pos] ^= 1 << rng.below(8);
        let got = read_all(&buf, buf.len() as u64);
        assert!(got.is_err(), "corrupted frame decoded as {got:?}");
    });
}

/// Cutting the stream anywhere that is not a frame boundary is
/// detected as truncation; cutting exactly on a boundary yields the
/// committed prefix.
#[test]
fn truncation_is_detected_on_open() {
    check_seeds("FRAME_SEED", 0xF4A3_E003, 256, |rng| {
        let payloads: Vec<Vec<u8>> = (0..1 + rng.below(7)).map(|_| bytes(rng, 0, 128)).collect();
        let mut buf = Vec::new();
        let mut boundaries = vec![0u64];
        for p in &payloads {
            encode_frame(&mut buf, 2, p);
            boundaries.push(buf.len() as u64);
        }
        let cut = rng.below(buf.len() as u64); // 0 <= cut < len
        let truncated = &buf[..cut as usize];
        let got = read_all(truncated, cut);
        if boundaries.contains(&cut) {
            let n = boundaries.iter().position(|&b| b == cut).unwrap();
            assert_eq!(got.unwrap().len(), n);
        } else {
            assert!(
                matches!(
                    got,
                    Err(StoreError::TruncatedFrame { .. }) | Err(StoreError::Codec { .. })
                ),
                "mid-frame cut at {cut} not detected"
            );
        }
    });
}

/// Blocks with arbitrary receipts/logs round-trip through the block
/// entry payload + frame codec bit-identically.
#[test]
fn block_entries_round_trip() {
    check_seeds("FRAME_SEED", 0xF4A3_E004, 256, |rng| {
        let number = 10_000_000 + rng.below(500);
        let n_txs = rng.below(5);
        let extra_events: Vec<LogEvent> = (0..rng.below(6)).map(|_| arb_event(rng)).collect();
        let emitter = rng.below(10_000);
        let (block, mut receipts) = test_block(number, n_txs);
        if let Some(last) = receipts.last_mut() {
            for ev in &extra_events {
                last.logs
                    .push(Log::new(Address::from_index(emitter), ev.clone()));
            }
        }
        let entry = BlockEntry { block, receipts };
        let payload = codec::to_vec(&entry);
        let mut buf = Vec::new();
        encode_frame(&mut buf, 2, &payload);
        let frames = read_all(&buf, buf.len() as u64).unwrap();
        assert_eq!(frames.len(), 1);
        let decoded: BlockEntry = codec::from_slice(&frames[0].1).unwrap();
        assert_eq!(decoded, entry);
    });
}

/// The committed limit always hides an uncommitted tail, wherever
/// the commit boundary falls.
#[test]
fn committed_limit_hides_tail() {
    check_seeds("FRAME_SEED", 0xF4A3_E005, 256, |rng| {
        let committed: Vec<Vec<u8>> = (0..rng.below(5)).map(|_| bytes(rng, 0, 64)).collect();
        let garbage = bytes(rng, 0, 64);
        let mut buf = Vec::new();
        for p in &committed {
            encode_frame(&mut buf, 2, p);
        }
        let limit = buf.len() as u64;
        buf.extend_from_slice(&garbage);
        let frames = read_all(&buf, limit).unwrap();
        assert_eq!(frames.len(), committed.len());
    });
}

#[test]
fn header_constant_matches_layout() {
    // 4 (len) + 1 (kind) + 4 (crc32).
    assert_eq!(FRAME_HEADER_BYTES, 9);
}
