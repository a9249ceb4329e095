//! 160-bit addresses, 256-bit hashes, and the deterministic digest used to
//! derive transaction and block hashes.
//!
//! The digest is a 4-lane SplitMix64 sponge — not cryptographic, but
//! collision-free in practice for simulation-scale inputs and, crucially,
//! fully deterministic across runs and platforms, which every experiment
//! in this repository depends on.

use std::fmt;

/// A 20-byte account address, displayed as `0x`-prefixed hex like Ethereum's.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// The zero address (used for issuance / burns).
    pub const ZERO: Address = Address([0u8; 20]);

    /// Deterministically derive the `i`-th simulation address.
    ///
    /// The index is diffused through SplitMix64 so addresses are visually
    /// distinct, then the index itself is stored in the trailing bytes so
    /// tests can recover it via [`Address::index`].
    pub fn from_index(i: u64) -> Address {
        let mut b = [0u8; 20];
        let diffused = splitmix64(i ^ 0xADD2E55);
        b[..8].copy_from_slice(&diffused.to_be_bytes());
        b[12..20].copy_from_slice(&i.to_be_bytes());
        Address(b)
    }

    /// Recover the index passed to [`Address::from_index`].
    pub fn index(&self) -> u64 {
        let mut x = [0u8; 8];
        x.copy_from_slice(&self.0[12..20]);
        u64::from_be_bytes(x)
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Short display form (first 4 bytes) for dense tables.
    pub fn short(&self) -> String {
        format!(
            "0x{:02x}{:02x}{:02x}{:02x}…",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// Parse error for hex-encoded primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseHexError;

impl fmt::Display for ParseHexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid hex-encoded value")
    }
}

impl std::error::Error for ParseHexError {}

fn parse_hex_bytes(s: &str, out: &mut [u8]) -> Result<(), ParseHexError> {
    let s = s.strip_prefix("0x").unwrap_or(s);
    if s.len() != out.len() * 2 {
        return Err(ParseHexError);
    }
    for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
        let hi = (chunk[0] as char).to_digit(16).ok_or(ParseHexError)?;
        let lo = (chunk[1] as char).to_digit(16).ok_or(ParseHexError)?;
        out[i] = (hi * 16 + lo) as u8;
    }
    Ok(())
}

impl std::str::FromStr for Address {
    type Err = ParseHexError;

    /// Parse a `0x`-prefixed (or bare) 40-digit hex address — the format
    /// [`fmt::Display`] produces, so exports round-trip.
    fn from_str(s: &str) -> Result<Address, ParseHexError> {
        let mut b = [0u8; 20];
        parse_hex_bytes(s, &mut b)?;
        Ok(Address(b))
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// A 32-byte digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct H256(pub [u8; 32]);

impl H256 {
    /// The all-zero digest.
    pub fn zero() -> H256 {
        H256([0u8; 32])
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The full `0x`-prefixed 64-digit hex form, which names the digest
    /// exactly (`Display` shows only the first 8 bytes).
    pub fn to_hex(&self) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(66);
        s.push_str("0x");
        for b in self.0 {
            s.push(DIGITS[(b >> 4) as usize] as char);
            s.push(DIGITS[(b & 0xf) as usize] as char);
        }
        s
    }

    /// Interpret the first 8 bytes as a big-endian integer (for sampling).
    pub fn prefix_u64(&self) -> u64 {
        let mut x = [0u8; 8];
        x.copy_from_slice(&self.0[..8]);
        u64::from_be_bytes(x)
    }
}

impl fmt::Debug for H256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for H256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…")
    }
}

/// SplitMix64 diffusion step.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Incremental, deterministic 256-bit digest builder.
///
/// Four independent SplitMix64 lanes absorb the input stream; finalisation
/// cross-mixes the lanes so every output bit depends on every input byte.
pub struct Digest {
    lanes: [u64; 4],
    counter: u64,
}

impl Digest {
    /// Create a digest with a domain-separation tag.
    pub fn new(domain: &str) -> Digest {
        let mut d = Digest {
            lanes: [0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a],
            counter: 0,
        };
        d.update(domain.as_bytes());
        d
    }

    /// Absorb raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let w = u64::from_le_bytes(word) ^ splitmix64(self.counter);
            self.counter = self.counter.wrapping_add(1);
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                *lane = splitmix64(lane.wrapping_add(w).wrapping_add(i as u64));
            }
        }
    }

    /// Absorb a `u64`.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Absorb a `u128`.
    pub fn update_u128(&mut self, v: u128) {
        self.update(&v.to_le_bytes());
    }

    /// Finalise into a 32-byte digest.
    pub fn finish(mut self) -> H256 {
        // Cross-mix lanes so short inputs still diffuse into every byte.
        for round in 0..2u64 {
            let mixed: u64 = self.lanes.iter().fold(round, |a, l| splitmix64(a ^ l));
            for lane in self.lanes.iter_mut() {
                *lane = splitmix64(*lane ^ mixed);
            }
        }
        let mut out = [0u8; 32];
        for (i, lane) in self.lanes.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&lane.to_be_bytes());
        }
        H256(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn address_index_roundtrip() {
        for i in [0u64, 1, 42, u32::MAX as u64, 999_999_999] {
            assert_eq!(Address::from_index(i).index(), i);
        }
    }

    #[test]
    fn addresses_are_distinct() {
        let set: HashSet<_> = (0..10_000).map(Address::from_index).collect();
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn digest_is_deterministic() {
        let mk = || {
            let mut d = Digest::new("t");
            d.update(b"hello world");
            d.update_u64(7);
            d.finish()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn digest_domain_separation() {
        let a = Digest::new("a").finish();
        let b = Digest::new("b").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn digest_order_sensitivity() {
        let mut d1 = Digest::new("t");
        d1.update_u64(1);
        d1.update_u64(2);
        let mut d2 = Digest::new("t");
        d2.update_u64(2);
        d2.update_u64(1);
        assert_ne!(d1.finish(), d2.finish());
    }

    #[test]
    fn digest_no_trivial_collisions() {
        let set: HashSet<_> = (0..50_000u64)
            .map(|i| {
                let mut d = Digest::new("c");
                d.update_u64(i);
                d.finish()
            })
            .collect();
        assert_eq!(set.len(), 50_000);
    }

    #[test]
    fn address_parses_its_own_display() {
        use std::str::FromStr;
        for i in [0u64, 1, 42, 999_999] {
            let a = Address::from_index(i);
            assert_eq!(Address::from_str(&a.to_string()).unwrap(), a);
        }
        // Bare hex (no prefix) accepted too.
        let a = Address::from_index(7);
        assert_eq!(
            Address::from_str(a.to_string().trim_start_matches("0x")).unwrap(),
            a
        );
        // Rejections.
        assert!(Address::from_str("0x1234").is_err(), "too short");
        assert!(
            Address::from_str(&("0x".to_string() + &"zz".repeat(20))).is_err(),
            "non-hex"
        );
    }

    #[test]
    fn display_forms() {
        let a = Address::from_index(1);
        assert!(a.to_string().starts_with("0x"));
        assert_eq!(a.to_string().len(), 42);
        assert!(a.short().starts_with("0x"));
        let h = H256::zero();
        assert!(h.to_string().starts_with("0x"));
    }
}
