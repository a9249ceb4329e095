//! Per-segment log bloom filters over `(address, event kind)` — the
//! store's analogue of Ethereum's per-block `logsBloom` (which hashes
//! each log's address and topics into a 2048-bit filter). Ours is sized
//! the same (2048 bits, 3 probes) but covers a whole segment, so a
//! [`LogFilter`] that names an address and/or event family can skip
//! entire segments without touching their bytes.
//!
//! Three keys are inserted per log — the address alone, the event kind
//! alone, and the pair — so pruning works for address-only, kind-only,
//! and combined filters alike.

use mev_chain::{EventKind, LogFilter};
use mev_types::codec::{Decode, DecodeError, Encode, Reader};
use mev_types::{Address, LogEvent};

/// Filter width in bits, matching Ethereum's `logsBloom`.
pub const BLOOM_BITS: usize = 2048;
const BLOOM_WORDS: usize = BLOOM_BITS / 64;
/// Probes per key, matching Ethereum's three index pairs per item.
const PROBES: u64 = 3;

/// A 2048-bit bloom filter over a segment's logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogBloom {
    /// 32 little-endian words; serialized as a JSON array.
    words: Vec<u64>,
}

impl LogBloom {
    pub fn new() -> LogBloom {
        LogBloom {
            words: vec![0u64; BLOOM_WORDS],
        }
    }

    /// A deserialized bloom is usable only at the canonical width.
    pub fn is_well_formed(&self) -> bool {
        self.words.len() == BLOOM_WORDS
    }

    fn set(&mut self, key: u64) {
        let mut state = key;
        for _ in 0..PROBES {
            state = splitmix64(state);
            let bit = (state % BLOOM_BITS as u64) as usize;
            if let Some(word) = self.words.get_mut(bit / 64) {
                *word |= 1u64 << (bit % 64);
            }
        }
    }

    fn test(&self, key: u64) -> bool {
        let mut state = key;
        for _ in 0..PROBES {
            state = splitmix64(state);
            let bit = (state % BLOOM_BITS as u64) as usize;
            let set = self
                .words
                .get(bit / 64)
                .map(|w| w & (1u64 << (bit % 64)) != 0)
                .unwrap_or(false);
            if !set {
                return false;
            }
        }
        true
    }

    /// Record one log's address and event family.
    pub fn insert(&mut self, address: Address, kind: EventKind) {
        self.set(key_address(address));
        self.set(key_kind(kind));
        self.set(key_pair(address, kind));
    }

    /// Record a full log.
    pub fn insert_log(&mut self, log: &mev_types::Log) {
        self.insert(log.address, kind_of(&log.event));
    }

    /// Could a log matching `filter`'s address/kind predicate live in
    /// this segment? `true` is "maybe", `false` is definitive. A filter
    /// with neither addresses nor kinds always returns `true`.
    ///
    /// Multi-value filters are disjunctions within a dimension, so the
    /// segment may match if *any* selected address/kind (or, when both
    /// dimensions are constrained, any cross-product pair) tests
    /// positive.
    pub fn may_match(&self, filter: &LogFilter) -> bool {
        match (filter.addresses.is_empty(), filter.kinds.is_empty()) {
            (true, true) => true,
            (false, true) => filter.addresses.iter().any(|&a| self.test(key_address(a))),
            (true, false) => filter.kinds.iter().any(|&k| self.test(key_kind(k))),
            (false, false) => filter
                .addresses
                .iter()
                .any(|&a| filter.kinds.iter().any(|&k| self.test(key_pair(a, k)))),
        }
    }

    /// Number of set bits.
    pub fn ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Fraction of bits set — the saturation `archive_store` reports; pruning
    /// power decays as this approaches 1.
    pub fn fill_ratio(&self) -> f64 {
        self.ones() as f64 / BLOOM_BITS as f64
    }
}

// The manifest carries blooms as their word vector (LEB128 words, so a
// sparse filter encodes short); `Manifest::validate` checks the width.
impl Encode for LogBloom {
    fn encode(&self, out: &mut Vec<u8>) {
        let LogBloom { words } = self;
        words.encode(out);
    }
}

impl Decode for LogBloom {
    fn decode(r: &mut Reader<'_>) -> Result<LogBloom, DecodeError> {
        Ok(LogBloom {
            words: Vec::decode(r)?,
        })
    }
}

impl Default for LogBloom {
    fn default() -> LogBloom {
        LogBloom::new()
    }
}

/// A [`LogFilter`]'s bloom probes, compiled once per query instead of
/// re-hashed per segment. Each candidate key's three probe bits are
/// merged into per-word masks, so testing a candidate against a segment
/// is at most three word loads and compares — and usually fewer, since
/// probes of one key often share a word. Bit-identical to
/// [`LogBloom::may_match`] by construction: same keys, same probe bits,
/// same disjunction-of-conjunctions shape.
#[derive(Debug, Clone)]
pub struct BloomQuery {
    /// One entry per candidate key (an address, a kind, or a pair);
    /// a candidate passes when every `(word, mask)` is fully set.
    candidates: Vec<Vec<(usize, u64)>>,
    /// True for a filter with neither addresses nor kinds: always match.
    unconstrained: bool,
}

impl BloomQuery {
    /// Compile `filter`'s probe set (same key families as
    /// [`LogBloom::may_match`]: addresses alone, kinds alone, or the
    /// cross-product of pairs when both dimensions are constrained).
    pub fn compile(filter: &LogFilter) -> BloomQuery {
        let keys: Vec<u64> = match (filter.addresses.is_empty(), filter.kinds.is_empty()) {
            (true, true) => {
                return BloomQuery {
                    candidates: Vec::new(),
                    unconstrained: true,
                }
            }
            (false, true) => filter.addresses.iter().map(|&a| key_address(a)).collect(),
            (true, false) => filter.kinds.iter().map(|&k| key_kind(k)).collect(),
            (false, false) => filter
                .addresses
                .iter()
                .flat_map(|&a| filter.kinds.iter().map(move |&k| key_pair(a, k)))
                .collect(),
        };
        let candidates = keys
            .into_iter()
            .map(|key| {
                let mut probes: Vec<(usize, u64)> = Vec::with_capacity(PROBES as usize);
                let mut state = key;
                for _ in 0..PROBES {
                    state = splitmix64(state);
                    let bit = (state % BLOOM_BITS as u64) as usize;
                    let (word, mask) = (bit / 64, 1u64 << (bit % 64));
                    match probes.iter_mut().find(|(w, _)| *w == word) {
                        Some((_, m)) => *m |= mask,
                        None => probes.push((word, mask)),
                    }
                }
                probes
            })
            .collect();
        BloomQuery {
            candidates,
            unconstrained: false,
        }
    }

    /// Could a log matching the compiled filter live behind `bloom`?
    /// Exactly [`LogBloom::may_match`]'s answer for the same filter.
    pub fn matches(&self, bloom: &LogBloom) -> bool {
        self.matches_counting(bloom).0
    }

    /// [`BloomQuery::matches`] plus the number of bloom words actually
    /// loaded — the `store.scan.bloom_probe_words` evidence that probes
    /// are batched word-wise (≤ 3 per candidate, short-circuiting).
    pub fn matches_counting(&self, bloom: &LogBloom) -> (bool, u64) {
        if self.unconstrained {
            return (true, 0);
        }
        let mut words_tested = 0u64;
        for candidate in &self.candidates {
            let mut hit = true;
            for &(word, mask) in candidate {
                words_tested += 1;
                let set = bloom
                    .words
                    .get(word)
                    .map(|w| w & mask == mask)
                    .unwrap_or(false);
                if !set {
                    hit = false;
                    break;
                }
            }
            if hit {
                return (true, words_tested);
            }
        }
        (false, words_tested)
    }

    /// Total `(word, mask)` probes across all candidates — the upper
    /// bound on words tested per segment.
    pub fn probe_words(&self) -> u64 {
        self.candidates.iter().map(|c| c.len() as u64).sum()
    }
}

/// SplitMix64 — a tiny, well-distributed mixer; consecutive applications
/// derive the probe sequence from a key.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes, seeded so the three key families never collide.
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ splitmix64(seed);
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Stable numeric tag per event family — part of the on-disk format.
/// The canonical mapping now lives on [`EventKind::tag`]; this wrapper
/// stays for the store's existing call sites.
pub fn kind_tag(kind: EventKind) -> u8 {
    kind.tag()
}

/// The event family of a decoded log body (see [`EventKind::of`]).
pub fn kind_of(event: &LogEvent) -> EventKind {
    EventKind::of(event)
}

fn key_address(a: Address) -> u64 {
    fnv1a(1, a.as_bytes())
}

fn key_kind(k: EventKind) -> u64 {
    fnv1a(2, &[kind_tag(k)])
}

fn key_pair(a: Address, k: EventKind) -> u64 {
    let mut bytes = [0u8; 21];
    bytes[..20].copy_from_slice(a.as_bytes());
    bytes[20] = kind_tag(k);
    fnv1a(3, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bloom_matches_nothing_specific() {
        let b = LogBloom::new();
        let f = LogFilter::new().address(Address::from_index(1));
        assert!(!b.may_match(&f));
        assert!(
            b.may_match(&LogFilter::new()),
            "unconstrained filter always maybe"
        );
    }

    #[test]
    fn inserted_pairs_match_all_filter_shapes() {
        let mut b = LogBloom::new();
        let a = Address::from_index(42);
        b.insert(a, EventKind::Swap);
        assert!(b.may_match(&LogFilter::new().address(a)));
        assert!(b.may_match(&LogFilter::new().kind(EventKind::Swap)));
        assert!(b.may_match(&LogFilter::new().address(a).kind(EventKind::Swap)));
    }

    #[test]
    fn absent_keys_usually_miss() {
        let mut b = LogBloom::new();
        for i in 0..20u64 {
            b.insert(Address::from_index(i), EventKind::Transfer);
        }
        // With 60 keys in 2048 bits the false-positive rate is tiny;
        // over 100 absent addresses, expect a large majority of misses.
        let misses = (1000..1100u64)
            .filter(|&i| !b.may_match(&LogFilter::new().address(Address::from_index(i))))
            .count();
        assert!(misses >= 95, "only {misses}/100 absent addresses missed");
        assert!(!b.may_match(&LogFilter::new().kind(EventKind::Liquidation)));
    }

    #[test]
    fn pair_key_is_more_selective_than_parts() {
        let mut b = LogBloom::new();
        let a1 = Address::from_index(1);
        let a2 = Address::from_index(2);
        b.insert(a1, EventKind::Swap);
        b.insert(a2, EventKind::Transfer);
        // Both parts present individually, but never together.
        let cross = LogFilter::new().address(a1).kind(EventKind::Transfer);
        assert!(!b.may_match(&cross));
    }

    #[test]
    fn multi_value_filters_prune_only_when_every_combo_misses() {
        let mut b = LogBloom::new();
        let a1 = Address::from_index(1);
        let a2 = Address::from_index(2);
        b.insert(a1, EventKind::Swap);
        // Any present member of a disjunction lets the segment through.
        assert!(b.may_match(&LogFilter::new().addresses([Address::from_index(9), a1])));
        assert!(b.may_match(&LogFilter::new().kinds([EventKind::Repay, EventKind::Swap])));
        // Both dimensions constrained: prune only if every cross-product
        // pair misses.
        assert!(!b.may_match(&LogFilter::new().address(a2).kind(EventKind::Transfer)));
        assert!(b.may_match(
            &LogFilter::new()
                .addresses([a2, a1])
                .kinds([EventKind::Transfer, EventKind::Swap])
        ));
    }

    #[test]
    fn fill_ratio_grows_monotonically() {
        let mut b = LogBloom::new();
        assert_eq!(b.ones(), 0);
        let mut last = 0.0;
        for i in 0..50u64 {
            b.insert(Address::from_index(i), EventKind::Swap);
            let r = b.fill_ratio();
            assert!(r >= last);
            last = r;
        }
        assert!(last > 0.0 && last < 0.5);
    }

    #[test]
    fn kind_tags_are_distinct_and_stable() {
        let all = [
            EventKind::Transfer,
            EventKind::Swap,
            EventKind::Deposit,
            EventKind::Borrow,
            EventKind::Repay,
            EventKind::Liquidation,
            EventKind::FlashLoan,
            EventKind::OracleUpdate,
            EventKind::Payout,
        ];
        let mut tags: Vec<u8> = all.iter().map(|&k| kind_tag(k)).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), all.len());
        // Frozen on-disk values.
        assert_eq!(kind_tag(EventKind::Transfer), 0);
        assert_eq!(kind_tag(EventKind::Payout), 8);
    }

    #[test]
    fn compiled_query_agrees_with_may_match() {
        let mut b = LogBloom::new();
        for i in 0..12u64 {
            b.insert(
                Address::from_index(i),
                if i % 2 == 0 {
                    EventKind::Swap
                } else {
                    EventKind::Transfer
                },
            );
        }
        let filters = [
            LogFilter::new(),
            LogFilter::new().address(Address::from_index(3)),
            LogFilter::new().address(Address::from_index(900)),
            LogFilter::new().kind(EventKind::Swap),
            LogFilter::new().kind(EventKind::Liquidation),
            LogFilter::new()
                .addresses([Address::from_index(2), Address::from_index(901)])
                .kinds([EventKind::Swap, EventKind::Repay]),
            LogFilter::new()
                .address(Address::from_index(3))
                .kind(EventKind::Swap),
        ];
        for f in &filters {
            let q = BloomQuery::compile(f);
            assert_eq!(q.matches(&b), b.may_match(f), "filter {f:?}");
            let (_, words) = q.matches_counting(&b);
            assert!(words <= q.probe_words());
            assert!(q.probe_words() <= 3 * q.candidates.len() as u64);
        }
        // An unconstrained query costs zero word loads.
        assert_eq!(
            BloomQuery::compile(&LogFilter::new()).matches_counting(&b),
            (true, 0)
        );
    }

    #[test]
    fn malformed_width_is_detected() {
        let b = LogBloom {
            words: vec![0u64; 4],
        };
        assert!(!b.is_well_formed());
        assert!(LogBloom::new().is_well_formed());
    }
}
