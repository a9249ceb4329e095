//! Binary codec for the archive's frame payloads.
//!
//! The store's `.seg` and `.idx` frames, its manifest and both detection
//! checkpoints (the live follower's and `StoreRun`'s) carry these
//! encodings; JSON stays for HTTP bodies. The layout is fixed and
//! self-delimiting, with no field names and no padding:
//!
//! * `u32`/`u64` and every length or count: unsigned LEB128, minimal
//!   form (a redundant trailing `0x00` group is rejected);
//! * `u128`, `i128` (and [`Wei`]): 16 bytes, little-endian (two's
//!   complement for `i128`); `bool`: one byte, `0` or `1`;
//! * `String`: byte count, then UTF-8 bytes;
//! * [`Address`]: its 20 raw bytes; [`H256`]: its 32 raw bytes;
//! * `Vec<T>`: count, then the elements; `Option<T>`: `0` or `1` then
//!   the value; tuples and structs: their fields in declaration order;
//! * enums: one tag byte, then the variant's fields. Tags are frozen:
//!   they are listed next to each impl below and must never be
//!   renumbered — a new variant takes the next free tag.
//!
//! Every struct impl destructures its value without `..`, so adding a
//! field is a compile error here until the codec learns it (and the
//! store's format version is bumped). [`Transaction`]'s cached content
//! hash is written out and read back, never recomputed.
//!
//! Decoding is total: malformed input of any shape — truncation, an
//! unknown tag, a count larger than the bytes left, trailing bytes,
//! `Action::FlashLoan` nested deeper than [`MAX_ACTION_DEPTH`] — is a
//! [`DecodeError`], never a panic, and no vector reserves more memory
//! than the bytes that remain to be read.

use crate::ids::{ExchangeId, LendingPlatformId, PoolId, TokenId};
use crate::log::{Log, LogEvent};
use crate::primitives::{Address, H256};
use crate::receipt::{ExecOutcome, Receipt};
use crate::time::{Month, Timeline};
use crate::tx::{Action, GroundTruth, SwapCall, Transaction, TxFee};
use crate::units::{Gas, Wei};
use crate::{Block, BlockHeader};
use std::fmt;

/// Bound on `size_of::<T>() / T::MIN_LEN` over every element type a
/// vector in these payloads holds (the widest is `Action`: `Other` encodes
/// in 2 bytes). Whatever its counts claim, decoding an `n`-byte payload
/// never reserves more than `MAX_EXPANSION × n` bytes at once.
pub const MAX_EXPANSION: usize = 32;

/// Deepest `Action::FlashLoan` nesting the decoder accepts. Simulated
/// flash loans wrap plain swaps (depth 1); the bound exists so a corrupt
/// payload cannot recurse without limit.
pub const MAX_ACTION_DEPTH: u32 = 32;

/// Why a payload failed to decode, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset within the payload where decoding stopped.
    pub offset: usize,
    pub reason: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at payload byte {}", self.reason, self.offset)
    }
}

impl std::error::Error for DecodeError {}

/// A value with a binary encoding.
pub trait Encode {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A value that can be read back from its [`Encode`] form.
pub trait Decode: Sized {
    /// Fewest bytes any encoding of `Self` occupies. A count of `n`
    /// elements is refused unless `n × MIN_LEN` bytes remain, so a
    /// vector's one exact reservation is bounded by the payload.
    const MIN_LEN: usize = 1;

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

/// Encode `value` into a fresh buffer.
pub fn to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decode exactly one `T` from `bytes`; bytes left over are an error.
pub fn from_slice<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Decode one `T` from the front of `bytes`, ignoring what follows (a
/// leading version field read before the rest's layout is known).
pub fn from_prefix<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
    T::decode(&mut Reader::new(bytes))
}

/// Append `v` as unsigned LEB128.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Cursor over a payload being decoded.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Current `Action::FlashLoan` nesting.
    depth: u32,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// An error at the current position — for impls outside this module
    /// that reject a value the primitives decoded (an unknown enum tag).
    pub fn error(&self, reason: &'static str) -> DecodeError {
        DecodeError {
            offset: self.pos,
            reason,
        }
    }

    /// Require that the whole payload was consumed.
    fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.error("trailing bytes"))
        }
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(self.error("unexpected end of payload")),
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let end = self.pos.saturating_add(N);
        let bytes = self
            .buf
            .get(self.pos..end)
            .and_then(|s| <[u8; N]>::try_from(s).ok())
            .ok_or_else(|| self.error("unexpected end of payload"))?;
        self.pos = end;
        Ok(bytes)
    }

    /// An unsigned LEB128 value in minimal form.
    fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            let low = u64::from(b & 0x7f);
            if shift == 63 && low > 1 {
                return Err(self.error("varint overflows u64"));
            }
            value |= low << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(self.error("non-minimal varint"));
                }
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.error("varint overflows u64"));
            }
        }
    }

    /// A count of elements at least `min_len` bytes long each; a count
    /// the remaining bytes cannot hold is corrupt.
    fn count(&mut self, min_len: usize) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        match usize::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(min_len.max(1)))
        {
            Some(bytes) if bytes <= self.remaining() => Ok(n as usize),
            _ => Err(self.error("count exceeds remaining bytes")),
        }
    }
}

// ---- primitives ----------------------------------------------------------

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<u8, DecodeError> {
        r.byte()
    }
}

impl Encode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<u32, DecodeError> {
        let v = r.varint()?;
        u32::try_from(v).map_err(|_| r.error("varint overflows u32"))
    }
}

impl Encode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<u64, DecodeError> {
        r.varint()
    }
}

impl Encode for u128 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Decode for u128 {
    const MIN_LEN: usize = 16;

    fn decode(r: &mut Reader<'_>) -> Result<u128, DecodeError> {
        Ok(u128::from_le_bytes(r.array()?))
    }
}

impl Encode for i128 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Decode for i128 {
    const MIN_LEN: usize = 16;

    fn decode(r: &mut Reader<'_>) -> Result<i128, DecodeError> {
        Ok(i128::from_le_bytes(r.array()?))
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<bool, DecodeError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(r.error("bool byte is not 0 or 1")),
        }
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<String, DecodeError> {
        let n = r.count(1)?;
        let bytes = r
            .buf
            .get(r.pos..r.pos + n)
            .ok_or_else(|| r.error("unexpected end of payload"))?;
        let s = std::str::from_utf8(bytes)
            .map_err(|_| r.error("string is not UTF-8"))?
            .to_string();
        r.pos += n;
        Ok(s)
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Vec<T>, DecodeError> {
        let n = r.count(T::MIN_LEN)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Option<T>, DecodeError> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(r.error("unknown Option tag")),
        }
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        let (a, b) = self;
        a.encode(out);
        b.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;

    fn decode(r: &mut Reader<'_>) -> Result<(A, B), DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// ---- newtypes and ids ----------------------------------------------------

impl Encode for Month {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for Month {
    fn decode(r: &mut Reader<'_>) -> Result<Month, DecodeError> {
        Ok(Month(u32::decode(r)?))
    }
}

impl Encode for Timeline {
    fn encode(&self, out: &mut Vec<u8>) {
        let Timeline {
            genesis_number,
            genesis_timestamp,
            seconds_per_block,
        } = self;
        genesis_number.encode(out);
        genesis_timestamp.encode(out);
        seconds_per_block.encode(out);
    }
}

impl Decode for Timeline {
    const MIN_LEN: usize = 3;

    fn decode(r: &mut Reader<'_>) -> Result<Timeline, DecodeError> {
        Ok(Timeline {
            genesis_number: u64::decode(r)?,
            genesis_timestamp: u64::decode(r)?,
            seconds_per_block: u64::decode(r)?,
        })
    }
}

impl Encode for Address {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

impl Decode for Address {
    const MIN_LEN: usize = 20;

    fn decode(r: &mut Reader<'_>) -> Result<Address, DecodeError> {
        Ok(Address(r.array()?))
    }
}

impl Encode for H256 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

impl Decode for H256 {
    const MIN_LEN: usize = 32;

    fn decode(r: &mut Reader<'_>) -> Result<H256, DecodeError> {
        Ok(H256(r.array()?))
    }
}

impl Encode for Wei {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for Wei {
    const MIN_LEN: usize = u128::MIN_LEN;

    fn decode(r: &mut Reader<'_>) -> Result<Wei, DecodeError> {
        Ok(Wei(u128::decode(r)?))
    }
}

impl Encode for Gas {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for Gas {
    fn decode(r: &mut Reader<'_>) -> Result<Gas, DecodeError> {
        Ok(Gas(u64::decode(r)?))
    }
}

impl Encode for TokenId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for TokenId {
    fn decode(r: &mut Reader<'_>) -> Result<TokenId, DecodeError> {
        Ok(TokenId(u32::decode(r)?))
    }
}

/// Frozen tags: UniswapV1 0, UniswapV2 1, UniswapV3 2, SushiSwap 3,
/// Bancor 4, Curve 5, Balancer 6, ZeroEx 7.
impl Encode for ExchangeId {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ExchangeId::UniswapV1 => 0,
            ExchangeId::UniswapV2 => 1,
            ExchangeId::UniswapV3 => 2,
            ExchangeId::SushiSwap => 3,
            ExchangeId::Bancor => 4,
            ExchangeId::Curve => 5,
            ExchangeId::Balancer => 6,
            ExchangeId::ZeroEx => 7,
        });
    }
}

impl Decode for ExchangeId {
    fn decode(r: &mut Reader<'_>) -> Result<ExchangeId, DecodeError> {
        Ok(match r.byte()? {
            0 => ExchangeId::UniswapV1,
            1 => ExchangeId::UniswapV2,
            2 => ExchangeId::UniswapV3,
            3 => ExchangeId::SushiSwap,
            4 => ExchangeId::Bancor,
            5 => ExchangeId::Curve,
            6 => ExchangeId::Balancer,
            7 => ExchangeId::ZeroEx,
            _ => return Err(r.error("unknown ExchangeId tag")),
        })
    }
}

/// Frozen tags: AaveV1 0, AaveV2 1, Compound 2, DyDx 3.
impl Encode for LendingPlatformId {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            LendingPlatformId::AaveV1 => 0,
            LendingPlatformId::AaveV2 => 1,
            LendingPlatformId::Compound => 2,
            LendingPlatformId::DyDx => 3,
        });
    }
}

impl Decode for LendingPlatformId {
    fn decode(r: &mut Reader<'_>) -> Result<LendingPlatformId, DecodeError> {
        Ok(match r.byte()? {
            0 => LendingPlatformId::AaveV1,
            1 => LendingPlatformId::AaveV2,
            2 => LendingPlatformId::Compound,
            3 => LendingPlatformId::DyDx,
            _ => return Err(r.error("unknown LendingPlatformId tag")),
        })
    }
}

impl Encode for PoolId {
    fn encode(&self, out: &mut Vec<u8>) {
        let PoolId { exchange, index } = self;
        exchange.encode(out);
        index.encode(out);
    }
}

impl Decode for PoolId {
    const MIN_LEN: usize = ExchangeId::MIN_LEN + u32::MIN_LEN;

    fn decode(r: &mut Reader<'_>) -> Result<PoolId, DecodeError> {
        Ok(PoolId {
            exchange: ExchangeId::decode(r)?,
            index: u32::decode(r)?,
        })
    }
}

// ---- transactions --------------------------------------------------------

/// Frozen tags: Legacy 0, Eip1559 1.
impl Encode for TxFee {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TxFee::Legacy { gas_price } => {
                out.push(0);
                gas_price.encode(out);
            }
            TxFee::Eip1559 {
                max_fee,
                max_priority,
            } => {
                out.push(1);
                max_fee.encode(out);
                max_priority.encode(out);
            }
        }
    }
}

impl Decode for TxFee {
    const MIN_LEN: usize = 1 + Wei::MIN_LEN;

    fn decode(r: &mut Reader<'_>) -> Result<TxFee, DecodeError> {
        Ok(match r.byte()? {
            0 => TxFee::Legacy {
                gas_price: Wei::decode(r)?,
            },
            1 => TxFee::Eip1559 {
                max_fee: Wei::decode(r)?,
                max_priority: Wei::decode(r)?,
            },
            _ => return Err(r.error("unknown TxFee tag")),
        })
    }
}

impl Encode for SwapCall {
    fn encode(&self, out: &mut Vec<u8>) {
        let SwapCall {
            pool,
            token_in,
            token_out,
            amount_in,
            min_amount_out,
        } = self;
        pool.encode(out);
        token_in.encode(out);
        token_out.encode(out);
        amount_in.encode(out);
        min_amount_out.encode(out);
    }
}

impl Decode for SwapCall {
    const MIN_LEN: usize = PoolId::MIN_LEN + 2 * TokenId::MIN_LEN + 2 * u128::MIN_LEN;

    fn decode(r: &mut Reader<'_>) -> Result<SwapCall, DecodeError> {
        Ok(SwapCall {
            pool: PoolId::decode(r)?,
            token_in: TokenId::decode(r)?,
            token_out: TokenId::decode(r)?,
            amount_in: u128::decode(r)?,
            min_amount_out: u128::decode(r)?,
        })
    }
}

/// Frozen tags: Transfer 0, Swap 1, Route 2, Deposit 3, Borrow 4,
/// Repay 5, Liquidate 6, OracleUpdate 7, FlashLoan 8, Payout 9, Other 10.
impl Encode for Action {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Action::Transfer { to, value } => {
                out.push(0);
                to.encode(out);
                value.encode(out);
            }
            Action::Swap(call) => {
                out.push(1);
                call.encode(out);
            }
            Action::Route(legs) => {
                out.push(2);
                legs.encode(out);
            }
            Action::Deposit {
                platform,
                token,
                amount,
            } => {
                out.push(3);
                platform.encode(out);
                token.encode(out);
                amount.encode(out);
            }
            Action::Borrow {
                platform,
                token,
                amount,
            } => {
                out.push(4);
                platform.encode(out);
                token.encode(out);
                amount.encode(out);
            }
            Action::Repay {
                platform,
                token,
                amount,
            } => {
                out.push(5);
                platform.encode(out);
                token.encode(out);
                amount.encode(out);
            }
            Action::Liquidate {
                platform,
                borrower,
                debt_token,
                repay_amount,
            } => {
                out.push(6);
                platform.encode(out);
                borrower.encode(out);
                debt_token.encode(out);
                repay_amount.encode(out);
            }
            Action::OracleUpdate { token, price_wei } => {
                out.push(7);
                token.encode(out);
                price_wei.encode(out);
            }
            Action::FlashLoan {
                platform,
                token,
                amount,
                inner,
            } => {
                out.push(8);
                platform.encode(out);
                token.encode(out);
                amount.encode(out);
                inner.encode(out);
            }
            Action::Payout { recipients } => {
                out.push(9);
                recipients.encode(out);
            }
            Action::Other { gas } => {
                out.push(10);
                gas.encode(out);
            }
        }
    }
}

impl Decode for Action {
    /// `Other` with a one-byte gas, or an empty `Route`.
    const MIN_LEN: usize = 2;

    fn decode(r: &mut Reader<'_>) -> Result<Action, DecodeError> {
        Ok(match r.byte()? {
            0 => Action::Transfer {
                to: Address::decode(r)?,
                value: Wei::decode(r)?,
            },
            1 => Action::Swap(SwapCall::decode(r)?),
            2 => Action::Route(Vec::decode(r)?),
            3 => Action::Deposit {
                platform: LendingPlatformId::decode(r)?,
                token: TokenId::decode(r)?,
                amount: u128::decode(r)?,
            },
            4 => Action::Borrow {
                platform: LendingPlatformId::decode(r)?,
                token: TokenId::decode(r)?,
                amount: u128::decode(r)?,
            },
            5 => Action::Repay {
                platform: LendingPlatformId::decode(r)?,
                token: TokenId::decode(r)?,
                amount: u128::decode(r)?,
            },
            6 => Action::Liquidate {
                platform: LendingPlatformId::decode(r)?,
                borrower: Address::decode(r)?,
                debt_token: TokenId::decode(r)?,
                repay_amount: u128::decode(r)?,
            },
            7 => Action::OracleUpdate {
                token: TokenId::decode(r)?,
                price_wei: u128::decode(r)?,
            },
            8 => {
                let platform = LendingPlatformId::decode(r)?;
                let token = TokenId::decode(r)?;
                let amount = u128::decode(r)?;
                if r.depth >= MAX_ACTION_DEPTH {
                    return Err(r.error("flash loans nested too deep"));
                }
                r.depth += 1;
                let inner = Vec::decode(r);
                r.depth -= 1;
                Action::FlashLoan {
                    platform,
                    token,
                    amount,
                    inner: inner?,
                }
            }
            9 => Action::Payout {
                recipients: Vec::decode(r)?,
            },
            10 => Action::Other {
                gas: Gas::decode(r)?,
            },
            _ => return Err(r.error("unknown Action tag")),
        })
    }
}

/// Frozen tags: SandwichFront 0, SandwichBack 1, SandwichVictim 2,
/// Arbitrage 3, Liquidation 4, OrdinaryTrade 5, Payout 6, Background 7.
impl Encode for GroundTruth {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            GroundTruth::SandwichFront => 0,
            GroundTruth::SandwichBack => 1,
            GroundTruth::SandwichVictim => 2,
            GroundTruth::Arbitrage => 3,
            GroundTruth::Liquidation => 4,
            GroundTruth::OrdinaryTrade => 5,
            GroundTruth::Payout => 6,
            GroundTruth::Background => 7,
        });
    }
}

impl Decode for GroundTruth {
    fn decode(r: &mut Reader<'_>) -> Result<GroundTruth, DecodeError> {
        Ok(match r.byte()? {
            0 => GroundTruth::SandwichFront,
            1 => GroundTruth::SandwichBack,
            2 => GroundTruth::SandwichVictim,
            3 => GroundTruth::Arbitrage,
            4 => GroundTruth::Liquidation,
            5 => GroundTruth::OrdinaryTrade,
            6 => GroundTruth::Payout,
            7 => GroundTruth::Background,
            _ => return Err(r.error("unknown GroundTruth tag")),
        })
    }
}

impl Encode for Transaction {
    fn encode(&self, out: &mut Vec<u8>) {
        let Transaction {
            from,
            nonce,
            fee,
            gas_limit,
            action,
            coinbase_tip,
            ground_truth,
            hash,
        } = self;
        from.encode(out);
        nonce.encode(out);
        fee.encode(out);
        gas_limit.encode(out);
        action.encode(out);
        coinbase_tip.encode(out);
        ground_truth.encode(out);
        hash.encode(out);
    }
}

impl Decode for Transaction {
    const MIN_LEN: usize = Address::MIN_LEN
        + u64::MIN_LEN
        + TxFee::MIN_LEN
        + Gas::MIN_LEN
        + Action::MIN_LEN
        + Wei::MIN_LEN
        + 1
        + H256::MIN_LEN;

    fn decode(r: &mut Reader<'_>) -> Result<Transaction, DecodeError> {
        Ok(Transaction {
            from: Address::decode(r)?,
            nonce: u64::decode(r)?,
            fee: TxFee::decode(r)?,
            gas_limit: Gas::decode(r)?,
            action: Action::decode(r)?,
            coinbase_tip: Wei::decode(r)?,
            ground_truth: Option::decode(r)?,
            hash: H256::decode(r)?,
        })
    }
}

// ---- blocks, receipts, logs ----------------------------------------------

impl Encode for BlockHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        let BlockHeader {
            number,
            parent_hash,
            miner,
            timestamp,
            gas_used,
            gas_limit,
            base_fee,
        } = self;
        number.encode(out);
        parent_hash.encode(out);
        miner.encode(out);
        timestamp.encode(out);
        gas_used.encode(out);
        gas_limit.encode(out);
        base_fee.encode(out);
    }
}

impl Decode for BlockHeader {
    const MIN_LEN: usize = 1 + H256::MIN_LEN + Address::MIN_LEN + 3 + Wei::MIN_LEN;

    fn decode(r: &mut Reader<'_>) -> Result<BlockHeader, DecodeError> {
        Ok(BlockHeader {
            number: u64::decode(r)?,
            parent_hash: H256::decode(r)?,
            miner: Address::decode(r)?,
            timestamp: u64::decode(r)?,
            gas_used: Gas::decode(r)?,
            gas_limit: Gas::decode(r)?,
            base_fee: Wei::decode(r)?,
        })
    }
}

impl Encode for Block {
    fn encode(&self, out: &mut Vec<u8>) {
        let Block {
            header,
            transactions,
        } = self;
        header.encode(out);
        transactions.encode(out);
    }
}

impl Decode for Block {
    fn decode(r: &mut Reader<'_>) -> Result<Block, DecodeError> {
        Ok(Block {
            header: BlockHeader::decode(r)?,
            transactions: Vec::decode(r)?,
        })
    }
}

/// Frozen tags: Success 0, Reverted 1.
impl Encode for ExecOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ExecOutcome::Success => 0,
            ExecOutcome::Reverted => 1,
        });
    }
}

impl Decode for ExecOutcome {
    fn decode(r: &mut Reader<'_>) -> Result<ExecOutcome, DecodeError> {
        Ok(match r.byte()? {
            0 => ExecOutcome::Success,
            1 => ExecOutcome::Reverted,
            _ => return Err(r.error("unknown ExecOutcome tag")),
        })
    }
}

/// Frozen tags: Transfer 0, Swap 1, Deposit 2, Borrow 3, Repay 4,
/// Liquidation 5, FlashLoan 6, OracleUpdate 7, Payout 8.
impl Encode for LogEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LogEvent::Transfer {
                token,
                from,
                to,
                amount,
            } => {
                out.push(0);
                token.encode(out);
                from.encode(out);
                to.encode(out);
                amount.encode(out);
            }
            LogEvent::Swap {
                pool,
                sender,
                token_in,
                amount_in,
                token_out,
                amount_out,
            } => {
                out.push(1);
                pool.encode(out);
                sender.encode(out);
                token_in.encode(out);
                amount_in.encode(out);
                token_out.encode(out);
                amount_out.encode(out);
            }
            LogEvent::Deposit {
                platform,
                user,
                token,
                amount,
            } => {
                out.push(2);
                platform.encode(out);
                user.encode(out);
                token.encode(out);
                amount.encode(out);
            }
            LogEvent::Borrow {
                platform,
                user,
                token,
                amount,
            } => {
                out.push(3);
                platform.encode(out);
                user.encode(out);
                token.encode(out);
                amount.encode(out);
            }
            LogEvent::Repay {
                platform,
                user,
                token,
                amount,
            } => {
                out.push(4);
                platform.encode(out);
                user.encode(out);
                token.encode(out);
                amount.encode(out);
            }
            LogEvent::Liquidation {
                platform,
                liquidator,
                borrower,
                debt_token,
                debt_repaid,
                collateral_token,
                collateral_seized,
            } => {
                out.push(5);
                platform.encode(out);
                liquidator.encode(out);
                borrower.encode(out);
                debt_token.encode(out);
                debt_repaid.encode(out);
                collateral_token.encode(out);
                collateral_seized.encode(out);
            }
            LogEvent::FlashLoan {
                platform,
                initiator,
                token,
                amount,
                fee,
            } => {
                out.push(6);
                platform.encode(out);
                initiator.encode(out);
                token.encode(out);
                amount.encode(out);
                fee.encode(out);
            }
            LogEvent::OracleUpdate { token, price_wei } => {
                out.push(7);
                token.encode(out);
                price_wei.encode(out);
            }
            LogEvent::Payout {
                payer,
                recipients,
                total,
            } => {
                out.push(8);
                payer.encode(out);
                recipients.encode(out);
                total.encode(out);
            }
        }
    }
}

impl Decode for LogEvent {
    /// `OracleUpdate`, the shortest variant.
    const MIN_LEN: usize = 1 + TokenId::MIN_LEN + u128::MIN_LEN;

    fn decode(r: &mut Reader<'_>) -> Result<LogEvent, DecodeError> {
        Ok(match r.byte()? {
            0 => LogEvent::Transfer {
                token: TokenId::decode(r)?,
                from: Address::decode(r)?,
                to: Address::decode(r)?,
                amount: u128::decode(r)?,
            },
            1 => LogEvent::Swap {
                pool: PoolId::decode(r)?,
                sender: Address::decode(r)?,
                token_in: TokenId::decode(r)?,
                amount_in: u128::decode(r)?,
                token_out: TokenId::decode(r)?,
                amount_out: u128::decode(r)?,
            },
            2 => LogEvent::Deposit {
                platform: LendingPlatformId::decode(r)?,
                user: Address::decode(r)?,
                token: TokenId::decode(r)?,
                amount: u128::decode(r)?,
            },
            3 => LogEvent::Borrow {
                platform: LendingPlatformId::decode(r)?,
                user: Address::decode(r)?,
                token: TokenId::decode(r)?,
                amount: u128::decode(r)?,
            },
            4 => LogEvent::Repay {
                platform: LendingPlatformId::decode(r)?,
                user: Address::decode(r)?,
                token: TokenId::decode(r)?,
                amount: u128::decode(r)?,
            },
            5 => LogEvent::Liquidation {
                platform: LendingPlatformId::decode(r)?,
                liquidator: Address::decode(r)?,
                borrower: Address::decode(r)?,
                debt_token: TokenId::decode(r)?,
                debt_repaid: u128::decode(r)?,
                collateral_token: TokenId::decode(r)?,
                collateral_seized: u128::decode(r)?,
            },
            6 => LogEvent::FlashLoan {
                platform: LendingPlatformId::decode(r)?,
                initiator: Address::decode(r)?,
                token: TokenId::decode(r)?,
                amount: u128::decode(r)?,
                fee: u128::decode(r)?,
            },
            7 => LogEvent::OracleUpdate {
                token: TokenId::decode(r)?,
                price_wei: u128::decode(r)?,
            },
            8 => LogEvent::Payout {
                payer: Address::decode(r)?,
                recipients: u32::decode(r)?,
                total: Wei::decode(r)?,
            },
            _ => return Err(r.error("unknown LogEvent tag")),
        })
    }
}

impl Encode for Log {
    fn encode(&self, out: &mut Vec<u8>) {
        let Log { address, event } = self;
        address.encode(out);
        event.encode(out);
    }
}

impl Decode for Log {
    const MIN_LEN: usize = Address::MIN_LEN + LogEvent::MIN_LEN;

    fn decode(r: &mut Reader<'_>) -> Result<Log, DecodeError> {
        Ok(Log {
            address: Address::decode(r)?,
            event: LogEvent::decode(r)?,
        })
    }
}

impl Encode for Receipt {
    fn encode(&self, out: &mut Vec<u8>) {
        let Receipt {
            tx_hash,
            index,
            from,
            outcome,
            gas_used,
            effective_gas_price,
            miner_fee,
            coinbase_transfer,
            logs,
        } = self;
        tx_hash.encode(out);
        index.encode(out);
        from.encode(out);
        outcome.encode(out);
        gas_used.encode(out);
        effective_gas_price.encode(out);
        miner_fee.encode(out);
        coinbase_transfer.encode(out);
        logs.encode(out);
    }
}

impl Decode for Receipt {
    const MIN_LEN: usize = H256::MIN_LEN + 1 + Address::MIN_LEN + 2 + 3 * Wei::MIN_LEN + 1;

    fn decode(r: &mut Reader<'_>) -> Result<Receipt, DecodeError> {
        Ok(Receipt {
            tx_hash: H256::decode(r)?,
            index: u32::decode(r)?,
            from: Address::decode(r)?,
            outcome: ExecOutcome::decode(r)?,
            gas_used: Gas::decode(r)?,
            effective_gas_price: Wei::decode(r)?,
            miner_fee: Wei::decode(r)?,
            coinbase_transfer: Wei::decode(r)?,
            logs: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint_bytes(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, v);
        out
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut vals = vec![
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX,
        ];
        vals.extend((0..64).map(|s| 1u64 << s));
        vals.extend((1..64).map(|s| (1u64 << s) - 1));
        for v in vals {
            let bytes = varint_bytes(v);
            assert_eq!(from_slice::<u64>(&bytes), Ok(v), "{v}");
            assert_eq!(
                bytes.len(),
                (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
            );
        }
    }

    #[test]
    fn malformed_varints_are_rejected() {
        // Redundant trailing group.
        assert!(from_slice::<u64>(&[0x80, 0x00]).is_err());
        // Eleven groups, and a tenth group carrying more than one bit.
        assert!(from_slice::<u64>(&[0xff; 11]).is_err());
        let mut ten = vec![0xffu8; 9];
        ten.push(0x02);
        assert!(from_slice::<u64>(&ten).is_err());
        ten[9] = 0x01;
        assert_eq!(from_slice::<u64>(&ten), Ok(u64::MAX));
        // Unterminated.
        assert!(from_slice::<u64>(&[0x80]).is_err());
        // u32 range.
        assert!(from_slice::<u32>(&varint_bytes(u32::MAX as u64 + 1)).is_err());
    }

    #[test]
    fn lying_counts_and_trailing_bytes_are_rejected() {
        // A count of 1,000 with three bytes behind it.
        let mut bytes = varint_bytes(1_000);
        bytes.extend_from_slice(&[1, 2, 3]);
        let err = from_slice::<Vec<u8>>(&bytes).unwrap_err();
        assert_eq!(err.reason, "count exceeds remaining bytes");
        // Counted in elements of MIN_LEN bytes: three bytes hold no H256.
        assert!(from_slice::<Vec<H256>>(&[1, 0, 0, 0]).is_err());
        assert!(
            from_slice::<Vec<u8>>(&[2, 7, 7, 9]).is_err(),
            "trailing byte"
        );
        assert_eq!(from_slice::<Vec<u8>>(&[2, 7, 7]), Ok(vec![7, 7]));
    }

    #[test]
    fn journal_primitives_round_trip_and_reject_bad_bytes() {
        for v in [i128::MIN, -1, 0, 1, i128::MAX] {
            assert_eq!(from_slice::<i128>(&to_vec(&v)), Ok(v));
        }
        assert_eq!(from_slice::<bool>(&[0]), Ok(false));
        assert_eq!(from_slice::<bool>(&[1]), Ok(true));
        assert!(from_slice::<bool>(&[2]).is_err());
        for s in ["", "seg-00001.idx", "ünïcode"] {
            assert_eq!(from_slice::<String>(&to_vec(s)), Ok(s.to_string()));
        }
        assert!(from_slice::<String>(&[2, 0xff, 0xfe]).is_err(), "not UTF-8");
        assert!(from_slice::<String>(&[3, b'a']).is_err(), "short");
        let m = Month::new(2021, 2);
        assert_eq!(from_slice::<Month>(&to_vec(&m)), Ok(m));
    }

    /// Every element type a payload vector holds, with its in-memory
    /// size over its minimum encoded size.
    #[test]
    fn element_expansion_is_bounded() {
        fn ratio<T: Decode>() -> usize {
            std::mem::size_of::<T>().div_ceil(T::MIN_LEN)
        }
        let ratios = [
            ratio::<Transaction>(),
            ratio::<Receipt>(),
            ratio::<Log>(),
            ratio::<LogEvent>(),
            ratio::<Action>(),
            ratio::<SwapCall>(),
            ratio::<(Address, Wei)>(),
            ratio::<Address>(),
            ratio::<H256>(),
            ratio::<u64>(),
            ratio::<u32>(),
            ratio::<(u32, u32)>(),
            ratio::<Vec<(u32, u32)>>(),
            ratio::<(u8, Vec<(u32, u32)>)>(),
            ratio::<Vec<(u8, Vec<(u32, u32)>)>>(),
        ];
        for (i, r) in ratios.iter().enumerate() {
            assert!(*r <= MAX_EXPANSION, "element type {i}: ratio {r}");
        }
    }

    /// Each declared minimum is met by the shortest value of its type.
    #[test]
    fn min_lens_are_attained() {
        let shortest_tx = Transaction::new(
            Address::ZERO,
            0,
            TxFee::Legacy { gas_price: Wei(0) },
            Gas(0),
            Action::Other { gas: Gas(0) },
            Wei(0),
            None,
        );
        assert_eq!(to_vec(&shortest_tx).len(), Transaction::MIN_LEN);
        let receipt = Receipt {
            tx_hash: H256::zero(),
            index: 0,
            from: Address::ZERO,
            outcome: ExecOutcome::Success,
            gas_used: Gas(0),
            effective_gas_price: Wei(0),
            miner_fee: Wei(0),
            coinbase_transfer: Wei(0),
            logs: vec![],
        };
        assert_eq!(to_vec(&receipt).len(), Receipt::MIN_LEN);
        let oracle = LogEvent::OracleUpdate {
            token: TokenId(0),
            price_wei: 0,
        };
        assert_eq!(to_vec(&oracle).len(), LogEvent::MIN_LEN);
        assert_eq!(to_vec(&Log::new(Address::ZERO, oracle)).len(), Log::MIN_LEN);
        assert_eq!(to_vec(&Action::Route(vec![])).len(), Action::MIN_LEN);
        let swap = SwapCall {
            pool: PoolId {
                exchange: ExchangeId::UniswapV1,
                index: 0,
            },
            token_in: TokenId(0),
            token_out: TokenId(0),
            amount_in: 0,
            min_amount_out: 0,
        };
        assert_eq!(to_vec(&swap).len(), SwapCall::MIN_LEN);
        let header = BlockHeader {
            number: 0,
            parent_hash: H256::zero(),
            miner: Address::ZERO,
            timestamp: 0,
            gas_used: Gas(0),
            gas_limit: Gas(0),
            base_fee: Wei(0),
        };
        assert_eq!(to_vec(&header).len(), BlockHeader::MIN_LEN);
    }

    #[test]
    fn flash_loan_nesting_is_bounded() {
        let nest = |depth: u32| {
            let mut a = Action::Other { gas: Gas(1) };
            for _ in 0..depth {
                a = Action::FlashLoan {
                    platform: LendingPlatformId::AaveV2,
                    token: TokenId::WETH,
                    amount: 5,
                    inner: vec![a],
                };
            }
            a
        };
        let ok = nest(MAX_ACTION_DEPTH);
        assert_eq!(from_slice::<Action>(&to_vec(&ok)), Ok(ok));
        let deep = to_vec(&nest(MAX_ACTION_DEPTH + 1));
        let err = from_slice::<Action>(&deep).unwrap_err();
        assert_eq!(err.reason, "flash loans nested too deep");
    }

    #[test]
    fn transaction_hash_is_carried_not_recomputed() {
        let tx = Transaction::new(
            Address::from_index(3),
            9,
            TxFee::Eip1559 {
                max_fee: Wei(100),
                max_priority: Wei(2),
            },
            Gas(21_000),
            Action::Transfer {
                to: Address::from_index(4),
                value: Wei(1),
            },
            Wei::ZERO,
            Some(GroundTruth::Background),
        );
        let mut bytes = to_vec(&tx);
        let back: Transaction = from_slice(&bytes).unwrap();
        assert_eq!(back, tx);
        assert_eq!(back.hash(), tx.hash());
        // The hash is the last 32 bytes; a stored hash wins over content.
        let n = bytes.len();
        bytes[n - 1] ^= 1;
        let altered: Transaction = from_slice(&bytes).unwrap();
        assert_ne!(altered.hash(), tx.hash());
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert_eq!(
            from_slice::<ExecOutcome>(&[2]).unwrap_err().reason,
            "unknown ExecOutcome tag"
        );
        assert!(from_slice::<Action>(&[11]).is_err());
        assert!(from_slice::<LogEvent>(&[9]).is_err());
        assert!(from_slice::<Option<u8>>(&[2, 0]).is_err());
    }
}
